package workloads

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/native"
)

// TestNew: New builds every Kind's spec as its constructor does, and an
// unknown name's error lists the kinds New knows.
func TestNew(t *testing.T) {
	for kind, want := range map[Kind]Spec{
		IC: ICSpec(8, 3), ICA: ICASpec(8, 3), IS: ISSpec(8, 3), OD: ODSpec(8, 3),
	} {
		if got, err := New(kind, 8, 3); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("New(%s) = %+v, %v; want %+v", kind, got, err, want)
		}
	}
	if _, err := New("ICX", 8, 3); err == nil || !strings.Contains(err.Error(), "want IC, ICA, IS, or OD") {
		t.Errorf("New(ICX): error %v, want one listing IC, ICA, IS and OD", err)
	}
}

// runTraced runs a small epoch of the spec with LotusTrace attached and
// returns the analysis.
func runTraced(t *testing.T, s Spec) *trace.Analysis {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.NewTracer(&buf)
	s.Run(tr.Hooks())
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Analyze(recs)
}

func TestICOpCostOrderingMatchesTableII(t *testing.T) {
	s := ICSpec(256, 1)
	a := runTraced(t, s)
	st := a.OpStats()
	loader, rrc := st["Loader"].Mean, st["RandomResizedCrop"].Mean
	rhf, tt, norm := st["RandomHorizontalFlip"].Mean, st["ToTensor"].Mean, st["Normalize"].Mean
	// Table II (IC): Loader 4.76 > RRC 1.11 > TT 0.34 > Normalize 0.21 > RHF 0.06 (ms).
	if !(loader > rrc && rrc > tt && tt > norm && norm > rhf) {
		t.Fatalf("IC op ordering wrong: Loader=%v RRC=%v TT=%v Norm=%v RHF=%v", loader, rrc, tt, norm, rhf)
	}
	// Magnitudes in the paper's regime (very loose bands — the shape is the
	// claim, not the absolute value).
	if loader < 2*time.Millisecond || loader > 15*time.Millisecond {
		t.Fatalf("IC Loader mean %v outside Table II regime (~4.76ms)", loader)
	}
	if rhf > 300*time.Microsecond {
		t.Fatalf("RHF mean %v — Table II has 0.06ms", rhf)
	}
	// The paper's headline: everything except collation is sub-10ms for
	// most images, and RHF is sub-100µs for most images.
	if st["Loader"].Under10ms < 0.8 {
		t.Fatalf("Loader <10ms fraction %.2f, paper reports 97.79%%", st["Loader"].Under10ms)
	}
	if st["RandomHorizontalFlip"].Under100us < 0.5 {
		t.Fatalf("RHF <100µs fraction %.2f, paper reports 98.3%%", st["RandomHorizontalFlip"].Under100us)
	}
}

func TestISOpCostShape(t *testing.T) {
	s := ISSpec(80, 2)
	a := runTraced(t, s)
	st := a.OpStats()
	// Table II (IS): RBC (91ms) and Loader (72ms) dominate; GN 6.46;
	// RF 4.39; Cast 2.16; RBA 0.78 (ms).
	if st["Loader"].Mean < 20*time.Millisecond {
		t.Fatalf("IS Loader mean %v — should be tens of ms", st["Loader"].Mean)
	}
	// Heavy tail on the foreground-crop rejection loop (paper: P90 299ms vs
	// mean 91ms, a 3.3x ratio).
	if st["RandBalancedCrop"].P90 < 2*st["RandBalancedCrop"].Mean {
		t.Fatalf("RBC P90 %v vs mean %v — expected a heavy tail",
			st["RandBalancedCrop"].P90, st["RandBalancedCrop"].Mean)
	}
	if st["Loader"].Mean < st["GaussianNoise"].Mean {
		t.Fatalf("IS ordering wrong: Loader=%v < GN=%v", st["Loader"].Mean, st["GaussianNoise"].Mean)
	}
	// GaussianNoise fires rarely (p=0.1) but is expensive when it does: the
	// total must be non-zero and the skipped case must dominate the
	// distribution (paper: 88.69% of applications < 100µs).
	if st["GaussianNoise"].Total == 0 {
		t.Fatal("GaussianNoise never fired over 80 samples")
	}
	if st["GaussianNoise"].Under100us < 0.7 {
		t.Fatalf("GN <100µs fraction %.2f (paper 88.69%%)", st["GaussianNoise"].Under100us)
	}
	if st["Cast"].Mean < 500*time.Microsecond || st["Cast"].Mean > 10*time.Millisecond {
		t.Fatalf("Cast mean %v outside regime (~2.16ms)", st["Cast"].Mean)
	}
	if st["RandomBrightnessAugmentation"].Under100us < 0.5 {
		t.Fatalf("RBA <100µs fraction %.2f — the branch-skipped case dominates (paper 88.69%%)",
			st["RandomBrightnessAugmentation"].Under100us)
	}
}

func TestODOpCostShape(t *testing.T) {
	s := ODSpec(64, 3)
	a := runTraced(t, s)
	st := a.OpStats()
	// Table II (OD): Loader 9.59, Resize 9.43, TT 6.75, Normalize 7.8 — all
	// the same order of magnitude; RHF 0.52 far below.
	loader, resize := st["Loader"].Mean, st["Resize"].Mean
	if loader < 3*time.Millisecond || loader > 40*time.Millisecond {
		t.Fatalf("OD Loader mean %v outside regime (~9.6ms)", loader)
	}
	ratio := float64(loader) / float64(resize)
	if ratio < 0.3 || ratio > 4 {
		t.Fatalf("OD Loader (%v) and Resize (%v) should be comparable", loader, resize)
	}
	if st["RandomHorizontalFlip"].Mean > st["ToTensor"].Mean {
		t.Fatal("OD RHF should be far below ToTensor")
	}
}

func TestICIsPreprocessingBoundISAndODAreGPUBound(t *testing.T) {
	icStats, _, _ := ICSpec(256, 1).Run(nil)
	if icStats.GPUUtilization() > 0.6 {
		t.Fatalf("IC GPU utilization %.2f — IC must be preprocessing-bound", icStats.GPUUtilization())
	}
	isStats, _, _ := ISSpec(24, 1).Run(nil)
	if isStats.GPUUtilization() < 0.85 {
		t.Fatalf("IS GPU utilization %.2f — IS must be GPU-bound", isStats.GPUUtilization())
	}
	odStats, _, _ := ODSpec(64, 1).Run(nil)
	if odStats.GPUUtilization() < 0.85 {
		t.Fatalf("OD GPU utilization %.2f — OD must be GPU-bound", odStats.GPUUtilization())
	}
}

func TestGPUBoundPipelinesShowLargeDelays(t *testing.T) {
	// Figure 2: IS delays ~10.9s >> GPU batch time 750ms; OD delays ~1.64s
	// >> 250ms. The invariant: delays well above one GPU batch time.
	is := runTraced(t, ISSpec(24, 4))
	if is.MaxDelay() < 2*time.Second {
		t.Fatalf("IS max delay %v — should be seconds (paper: 10.9s)", is.MaxDelay())
	}
	ic := runTraced(t, ICSpec(256, 4))
	if ic.MaxDelay() > is.MaxDelay() {
		t.Fatalf("IC delay (%v) should be far below IS (%v)", ic.MaxDelay(), is.MaxDelay())
	}
}

func TestPerBatchVarianceRegime(t *testing.T) {
	// Figure 4: IC per-batch preprocessing stddev is 5.48–10.73% of the
	// mean. Band check with margin.
	s := ICSpec(1280, 5)
	s.NumWorkers, s.GPUs = 4, 4
	a := runTraced(t, s)
	st := trace.ComputeDistStats(a.PreprocessTimes())
	if st.StdOfMean < 0.02 || st.StdOfMean > 0.25 {
		t.Fatalf("IC per-batch stddev/mean = %.3f, paper band 0.055-0.107", st.StdOfMean)
	}
}

func TestSpecPrototypeMatchesKind(t *testing.T) {
	p := ICSpec(10, 1).Prototype()
	if p.Width <= 0 || p.Depth != 0 {
		t.Fatalf("IC prototype %+v", p)
	}
	v := ISSpec(10, 1).Prototype()
	if v.Depth <= 0 {
		t.Fatalf("IS prototype %+v", v)
	}
}

func TestOpOrderCoversLoggedOps(t *testing.T) {
	for _, s := range []Spec{ICSpec(8, 1), ODSpec(8, 1)} {
		a := runTraced(t, s)
		logged := a.OpStats()
		order := s.OpOrder()
		inOrder := map[string]bool{}
		for _, op := range order {
			inOrder[op] = true
		}
		for op := range logged {
			if !inOrder[op] {
				t.Fatalf("%s: logged op %q missing from OpOrder", s.Kind, op)
			}
		}
	}
}

func TestRunWithEngineUsesProvidedEngine(t *testing.T) {
	engine := native.NewEngine(native.AMD)
	_, used, _ := ICSpec(16, 1).RunWithEngine(nil, engine)
	if used != engine {
		t.Fatal("RunWithEngine must use the caller's engine")
	}
}
