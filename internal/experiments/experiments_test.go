package experiments

import (
	"strings"
	"testing"

	"lotus/internal/hwsim"
	"lotus/internal/workloads"
)

// opSeries extracts one op's metric across Figure 6's worker counts.
func opSeries(r *Fig6Result, op string, metric func(hwsim.Counters) float64) []float64 {
	var out []float64
	for _, p := range r.Points {
		if c, ok := p.PerOp[op]; ok {
			out = append(out, metric(c))
		}
	}
	return out
}

// under10ms is the fraction of a pipeline's op applications under 10 ms,
// Takeaway 1's headline.
func under10ms(p Table2Pipeline) float64 {
	var n, short int
	for _, op := range p.Order {
		st := p.Stats[op]
		n += st.Count
		short += int(st.Under10ms * float64(st.Count))
	}
	return float64(short) / float64(n)
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig6amd", "table3", "table4", "extensions"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d is %q, want %q", i, all[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Fatalf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown id succeeded")
	}
}

func TestTable1MappingRecoversPaperFunctions(t *testing.T) {
	res := RunTable1(Small)
	if res.Intel == nil || res.AMD == nil {
		t.Fatal("missing vendor mapping")
	}
	// The dominant decode kernels of the paper's Table I must be present on
	// both vendors.
	for _, m := range []struct {
		name string
		ops  map[string][]string
	}{} {
		_ = m
	}
	check := func(name string, mOps map[string]bool, syms ...string) {
		for _, s := range syms {
			if !mOps[s] {
				t.Errorf("%s missing %s", name, s)
			}
		}
	}
	intelLoader := map[string]bool{}
	for _, f := range res.Intel.Ops["Loader"] {
		intelLoader[f.Symbol] = true
	}
	check("intel Loader", intelLoader, "decode_mcu", "jpeg_idct_islow", "ycc_rgb_convert")
	amdLoader := map[string]bool{}
	for _, f := range res.AMD.Ops["Loader"] {
		amdLoader[f.Symbol] = true
	}
	check("amd Loader", amdLoader, "decode_mcu", "ycc_rgb_convert")
	out := res.Render()
	if !strings.Contains(out, "TABLE I") {
		t.Fatal("render missing header")
	}
	// results/table1.txt is a committed golden: rendering must not depend on
	// map iteration order. Sixteen tries make a random order near certain to
	// show.
	for i := 0; i < 16; i++ {
		if again := res.Render(); again != out {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i+2, again, out)
		}
	}
	// AMD's finer sampling should deliver at least as good Loader recall.
	var intelRecall, amdRecall float64
	for _, q := range res.IntelQuality {
		if q.Op == "Loader" {
			intelRecall = q.Recall
		}
	}
	for _, q := range res.AMDQuality {
		if q.Op == "Loader" {
			amdRecall = q.Recall
		}
	}
	if amdRecall < 0.5 || intelRecall < 0.3 {
		t.Fatalf("Loader recall too low: intel=%.2f amd=%.2f", intelRecall, amdRecall)
	}
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	res := RunTable2(Small)
	if len(res.Pipelines) != 3 {
		t.Fatalf("%d pipelines", len(res.Pipelines))
	}
	byKind := map[workloads.Kind]Table2Pipeline{}
	for _, p := range res.Pipelines {
		byKind[p.Kind] = p
	}
	ic := byKind[workloads.IC]
	if ic.Stats["Loader"].Mean < ic.Stats["RandomResizedCrop"].Mean {
		t.Fatal("IC: Loader must dominate RRC")
	}
	// Takeaway 1: sub-10ms ops everywhere.
	if frac := under10ms(ic); frac < 0.5 {
		t.Fatalf("IC short-op fraction %.2f", frac)
	}
	is := byKind[workloads.IS]
	if is.Stats["RandBalancedCrop"].P90 < is.Stats["RandBalancedCrop"].Mean {
		t.Fatal("IS: RBC P90 below mean")
	}
	od := byKind[workloads.OD]
	if od.Stats["Resize"].Mean < od.Stats["RandomHorizontalFlip"].Mean {
		t.Fatal("OD: Resize must dominate RHF")
	}
	if !strings.Contains(res.Render(), "paper Avg") {
		t.Fatal("render missing paper comparison")
	}
}

func TestFig2BottleneckVerdicts(t *testing.T) {
	res := RunFig2(Small)
	verdicts := map[workloads.Kind]Fig2Row{}
	for _, row := range res.Rows {
		verdicts[row.Kind] = row
	}
	if !verdicts[workloads.IC].PreprocessingBound {
		t.Fatalf("IC must be preprocessing-bound: %+v", verdicts[workloads.IC])
	}
	if verdicts[workloads.IS].PreprocessingBound {
		t.Fatalf("IS must be GPU-bound: %+v", verdicts[workloads.IS])
	}
	if verdicts[workloads.OD].PreprocessingBound {
		t.Fatalf("OD must be GPU-bound: %+v", verdicts[workloads.OD])
	}
	// GPU-bound pipelines show delays well beyond a single GPU batch time.
	if verdicts[workloads.IS].MaxDelay < 2*verdicts[workloads.IS].GPUBatchTime {
		t.Fatalf("IS max delay %v vs gpu batch %v", verdicts[workloads.IS].MaxDelay, verdicts[workloads.IS].GPUBatchTime)
	}
	// IC's parallel preprocessing must overlap in the trace (Fig 2a).
	if !verdicts[workloads.IC].WorkersOverlap {
		t.Fatal("IC worker spans should overlap")
	}
	if len(res.Traces[workloads.IC]) == 0 {
		t.Fatal("missing chrome trace export")
	}
}

func TestFig3FindsOutOfOrderArrivals(t *testing.T) {
	res := RunFig3(Small)
	if len(res.OOOBatches) == 0 {
		t.Fatal("no out-of-order arrivals with 4 workers and variable batches")
	}
	if !res.Example.Found {
		t.Fatal("no concrete OOO example extracted")
	}
	if res.Example.DelayedBy <= 0 {
		t.Fatal("OOO example has no delay")
	}
}

func TestFig4VarianceTrends(t *testing.T) {
	res := RunFig4(Small)
	if len(res.Configs) != 16 {
		t.Fatalf("%d configs, want 16", len(res.Configs))
	}
	// IQR grows with batch size (paper: up to 6.9x from 128 to 1024). Our
	// batches are i.i.d. sums, so the growth follows ~sqrt(1024/128)=2.8;
	// at Small scale quartile estimates are noisy, so require >1.5.
	if res.IQRRatio < 1.5 {
		t.Fatalf("IQR ratio %.1f — larger batches must have wider IQR", res.IQRRatio)
	}
	// The std/mean band overlaps the paper's 5.48–10.73%.
	if res.StdOfMeanMax < 0.03 || res.StdOfMeanMin > 0.30 {
		t.Fatalf("std/mean band [%.3f, %.3f] far from paper's", res.StdOfMeanMin, res.StdOfMeanMax)
	}
	// OD is the most variable pipeline (paper: 66.8% vs IS 15.47%).
	if res.ODStdOfMean <= res.StdOfMeanMax {
		t.Fatalf("OD std/mean %.3f should exceed IC's %.3f", res.ODStdOfMean, res.StdOfMeanMax)
	}
}

func TestFig5WaitAndDelay(t *testing.T) {
	res := RunFig5(Small)
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Figure 5a: substantial fractions of batches wait >500ms; the GPU
		// stalls on preprocessing.
		if row.WaitsOver500 < 0.20 {
			t.Fatalf("g=%d: waits>500ms only %.2f (paper: 30.84%%-100%%)", row.GPUs, row.WaitsOver500)
		}
		if !row.GPUStallsExist {
			t.Fatalf("g=%d: no waits exceeding GPU batch time", row.GPUs)
		}
	}
	// Figure 5b: multi-loader configs see delayed batches; single-loader
	// sees almost none (paper excepts b512 g1).
	if res.Rows[0].DelaysOver500 > 0.2 {
		t.Fatalf("g=1 delays>500ms = %.2f, should be small", res.Rows[0].DelaysOver500)
	}
	multi := false
	for _, row := range res.Rows[1:] {
		if row.DelaysOver500 > 0.05 && row.OOOBatches > 0 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("no multi-loader config shows delayed batches with OOO events")
	}
}

func TestFig6HardwareTrends(t *testing.T) {
	res := RunFig6(Small)
	if len(res.Points) != 6 {
		t.Fatalf("%d points", len(res.Points))
	}
	// (a) e2e falls substantially from 8 to 28 workers.
	if res.E2EDropFrac < 0.25 {
		t.Fatalf("e2e drop %.2f — paper observes ~50%%", res.E2EDropFrac)
	}
	// (b) CPU seconds grow.
	if res.CPUGrowthFrac < 0.15 {
		t.Fatalf("cpu growth %.2f — paper observes +53%%", res.CPUGrowthFrac)
	}
	// (e) per-op CPU time rises with workers for the major ops.
	for _, op := range []string{"Loader", "RandomResizedCrop"} {
		series := opSeries(res, op, func(c hwsim.Counters) float64 { return float64(c.CPUTime) })
		if len(series) < 2 || series[len(series)-1] <= series[0] {
			t.Fatalf("%s CPU time did not rise: %v", op, series)
		}
	}
	// (f) µops delivered per cycle falls; (g) front-end bound rises;
	// (h) DRAM bound falls — for the dominant op.
	upc := opSeries(res, "Loader", func(c hwsim.Counters) float64 {
		if c.Cycles == 0 {
			return 0
		}
		return c.UopsDelivered / c.Cycles
	})
	fe := opSeries(res, "Loader", func(c hwsim.Counters) float64 { return c.FrontEndBoundFrac() })
	dram := opSeries(res, "Loader", func(c hwsim.Counters) float64 { return c.DRAMBoundFrac() })
	if upc[len(upc)-1] >= upc[0] {
		t.Fatalf("µop delivery should fall with workers: %v", upc)
	}
	if fe[len(fe)-1] <= fe[0] {
		t.Fatalf("front-end bound should rise with workers: %v", fe)
	}
	if dram[len(dram)-1] >= dram[0] {
		t.Fatalf("DRAM bound should fall with workers: %v", dram)
	}
	if !strings.Contains(res.Render(), "FIGURE 6") {
		t.Fatal("render broken")
	}
}

func TestTable3OverheadOrdering(t *testing.T) {
	res := RunTable3(Small)
	get := func(p, d string) Table3Row {
		row, ok := res.Row(p, d)
		if !ok {
			t.Fatalf("missing row %s/%s", p, d)
		}
		return row
	}
	lotusFull := get("Lotus", "full")
	scalene := get("Scalene", "full")
	pyspy := get("py-spy", "full")
	austin := get("austin", "small")
	torch := get("PyTorch Profiler", "small")
	lotusSmall := get("Lotus", "small")

	// Overhead ordering (Table III): Lotus < austin < py-spy << Scalene/Torch.
	if lotusFull.Outcome.OverheadFrac > 0.05 {
		t.Fatalf("Lotus overhead %.3f — paper ~0%%", lotusFull.Outcome.OverheadFrac)
	}
	if !(scalene.Outcome.OverheadFrac > 0.5 && torch.Outcome.OverheadFrac > 0.5) {
		t.Fatalf("heavy profilers not heavy: scalene=%.2f torch=%.2f",
			scalene.Outcome.OverheadFrac, torch.Outcome.OverheadFrac)
	}
	if pyspy.Outcome.OverheadFrac < lotusFull.Outcome.OverheadFrac {
		t.Fatal("py-spy should cost more than Lotus")
	}
	// Storage: austin explodes relative to Lotus (paper: 1000x).
	if austin.Outcome.StorageBytes < 50*lotusSmall.Outcome.StorageBytes {
		t.Fatalf("austin storage %d vs lotus %d — expected orders of magnitude more",
			austin.Outcome.StorageBytes, lotusSmall.Outcome.StorageBytes)
	}
	// PyTorch profiler OOMs at real-ImageNet scale, survives small.
	if !res.TorchOOMAtImageNetScale {
		t.Fatalf("torch profiler should OOM at ImageNet scale (buffers %d)", res.TorchMemAtImageNetScale)
	}
	if torch.Outcome.OOM {
		t.Fatal("torch profiler should survive the small dataset")
	}
	// Lotus storage grows with dataset size (it is measured, not modeled).
	if lotusFull.Outcome.StorageBytes <= lotusSmall.Outcome.StorageBytes {
		t.Fatal("lotus log should grow with dataset")
	}
}

func TestTable4Render(t *testing.T) {
	res := RunTable4(Small)
	out := res.Render()
	if !strings.Contains(out, "Lotus") || !strings.Contains(out, "PyTorch Profiler") {
		t.Fatal("render incomplete")
	}
	for _, row := range res.Rows {
		if row.Profiler == "Lotus" {
			c := row.Caps
			if !(c.Epoch && c.Batch && c.Async && c.Wait && c.Delay) {
				t.Fatalf("Lotus caps %+v", c)
			}
		}
	}
}

func TestExtensionsStudies(t *testing.T) {
	res := RunExtensions(Small)
	// Takeaway 2: offline decode must shorten the epoch and raise GPU use.
	if res.OfflineEpoch >= res.OnlineEpoch {
		t.Fatalf("offline %v should beat online %v", res.OfflineEpoch, res.OnlineEpoch)
	}
	if res.OfflineGPUUtil <= res.OnlineGPUUtil {
		t.Fatal("offline decode should raise GPU utilization")
	}
	// Takeaway 4: the least-work policy must not worsen the tail.
	if res.LeastWorkMaxDelay > res.ProducerMaxDelay+res.ProducerMaxDelay/4 {
		t.Fatalf("least-work max delay %v vs producer %v", res.LeastWorkMaxDelay, res.ProducerMaxDelay)
	}
	// Attribution: both schemes close to the oracle; refined not worse.
	if res.BasicAttrError > 0.5 {
		t.Fatalf("basic attribution error %.3f implausible", res.BasicAttrError)
	}
	if res.RefinedAttrError > res.BasicAttrError+0.02 {
		t.Fatalf("refined error %.3f worse than basic %.3f", res.RefinedAttrError, res.BasicAttrError)
	}
	// Takeaway 5: the GPU-bound IS pipeline needs almost no search.
	if res.ISTuneSteps > 3 {
		t.Fatalf("IS tuning took %d evaluations", res.ISTuneSteps)
	}
	if !strings.Contains(res.Render(), "Takeaway 5") {
		t.Fatal("render incomplete")
	}
}
