package hwsim

import (
	"math"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/native"
)

// Row finds a report row by symbol. ok is false if the symbol never sampled.
func (r *Report) Row(symbol string) (FuncRow, bool) {
	for _, row := range r.Rows {
		if row.Symbol == symbol {
			return row, true
		}
	}
	return FuncRow{}, false
}

func testEngine() *native.Engine {
	return native.NewEngine(native.Intel)
}

// runKernels executes a fixed alternating workload on one thread while a
// session records, and returns the session detached at end.
func runKernels(e *native.Engine, kernels []string, bytesPer int, reps int) (*Session, time.Time) {
	sess := NewSession(e)
	th := &native.Thread{ID: 1, Cursor: clock.Epoch}
	sess.Resume(th.Cursor)
	e.BeginWork()
	for i := 0; i < reps; i++ {
		for _, k := range kernels {
			e.Exec(th, []native.Call{{Kernel: k, Bytes: bytesPer}})
		}
	}
	e.EndWork()
	sess.Detach(th.Cursor)
	return sess, th.Cursor
}

func TestSamplerFindsLongKernels(t *testing.T) {
	e := testEngine()
	// decode_mcu at 45 cyc/B on 1 MB -> ~14 ms per call; 100 calls ≈ 1.4 s.
	sess, _ := runKernels(e, []string{"decode_mcu"}, 1<<20, 100)
	cfg := VTuneSampler(1)
	cfg.NoiseProb = 0
	rep := sess.Collect(cfg, "vtune")
	row, ok := rep.Row("decode_mcu")
	if !ok {
		t.Fatal("decode_mcu not sampled despite dominating the window")
	}
	// Expected CPU time ~ total window; sampled time should be within 20%.
	var total time.Duration
	for _, row := range rep.Rows {
		total += row.Counters.CPUTime
	}
	if math.Abs(float64(row.Counters.CPUTime-total)/float64(total)) > 0.01 {
		t.Fatalf("decode_mcu CPU time %v, total %v — should dominate", row.Counters.CPUTime, total)
	}
}

func TestSamplerMissesShortKernelsAtCoarseInterval(t *testing.T) {
	e := testEngine()
	// One short memset (25 µs at 100 KB) inside a long decode: a single
	// 10 ms-interval pass catches it rarely.
	hits := 0
	const runs = 40
	for seed := int64(0); seed < runs; seed++ {
		sess := NewSession(e)
		th := &native.Thread{ID: 1, Cursor: clock.Epoch}
		sess.Resume(th.Cursor)
		e.BeginWork()
		e.Exec(th, []native.Call{{Kernel: "decode_mcu", Bytes: 1 << 20}}) // ~14ms
		e.Exec(th, []native.Call{{Kernel: "memset", Bytes: 100 << 10}})   // ~8µs
		e.Exec(th, []native.Call{{Kernel: "decode_mcu", Bytes: 1 << 20}})
		e.EndWork()
		sess.Detach(th.Cursor)
		cfg := VTuneSampler(seed)
		cfg.NoiseProb = 0
		cfg.SkidProb = 0
		rep := sess.Collect(cfg, "vtune")
		if _, ok := rep.Row("__memset_avx2_unaligned_erms"); ok {
			hits++
		}
	}
	if hits > runs/4 {
		t.Fatalf("short kernel sampled in %d/%d runs; 10ms sampling should mostly miss ~8µs functions", hits, runs)
	}
}

func TestFinerIntervalCatchesMore(t *testing.T) {
	e := testEngine()
	catch := func(cfg SamplerConfig) int {
		hits := 0
		for seed := int64(0); seed < 30; seed++ {
			sess := NewSession(e)
			th := &native.Thread{ID: 1, Cursor: clock.Epoch}
			sess.Resume(th.Cursor)
			e.BeginWork()
			e.Exec(th, []native.Call{{Kernel: "decode_mcu", Bytes: 1 << 19}})
			e.Exec(th, []native.Call{{Kernel: "ycc_rgb_convert", Bytes: 1 << 19}}) // ~0.65ms
			e.Exec(th, []native.Call{{Kernel: "decode_mcu", Bytes: 1 << 19}})
			e.EndWork()
			sess.Detach(th.Cursor)
			cfg.Seed = seed
			cfg.NoiseProb = 0
			cfg.SkidProb = 0
			rep := sess.Collect(cfg, "x")
			if _, ok := rep.Row("ycc_rgb_convert"); ok {
				hits++
			}
		}
		return hits
	}
	coarse := catch(VTuneSampler(0))
	fine := catch(UProfSampler(0))
	if fine <= coarse {
		t.Fatalf("1ms sampling caught %d/30, 10ms caught %d/30 — finer interval must catch more", fine, coarse)
	}
}

func TestSkidMisattributesAcrossBoundary(t *testing.T) {
	e := testEngine()
	// Alternate two kernels; with an aggressive skid config, some samples
	// landing early in kernel B are credited to kernel A.
	sess, _ := runKernels(e, []string{"decode_mcu", "jpeg_idct_islow"}, 1<<20, 60)
	cfg := SamplerConfig{Interval: 10 * time.Millisecond, SkidProb: 1.0, SkidWindow: 12 * time.Millisecond, Seed: 5}
	noSkid := SamplerConfig{Interval: 10 * time.Millisecond, Seed: 5}
	withRep := BuildReport(NewSampler(cfg).Run(sess.Recording(), sess.Windows()), "a", native.Intel)
	withoutRep := BuildReport(NewSampler(noSkid).Run(sess.Recording(), sess.Windows()), "b", native.Intel)
	// decode_mcu (~14 ms/call) dwarfs jpeg_idct_islow (~2.6 ms/call): with a
	// 12 ms skid window most decode samples get mis-credited to the idct that
	// preceded them, inflating the short kernel's count.
	skidRow, _ := withRep.Row("jpeg_idct_islow")
	cleanRow, _ := withoutRep.Row("jpeg_idct_islow")
	if skidRow.Samples <= cleanRow.Samples {
		t.Fatalf("skid should inflate the short kernel: %d vs %d samples", skidRow.Samples, cleanRow.Samples)
	}
	// Attribution errors move samples around but never create or drop them.
	var withTotal, withoutTotal int
	for _, r := range withRep.Rows {
		withTotal += r.Samples
	}
	for _, r := range withoutRep.Rows {
		withoutTotal += r.Samples
	}
	if withTotal != withoutTotal {
		t.Fatalf("skid changed total sample count: %d vs %d", withTotal, withoutTotal)
	}
}

func TestNoiseProducesBackgroundSymbols(t *testing.T) {
	e := testEngine()
	sess, _ := runKernels(e, []string{"decode_mcu"}, 1<<20, 200)
	cfg := VTuneSampler(2)
	cfg.NoiseProb = 0.3
	rep := sess.Collect(cfg, "vtune")
	background := 0
	for _, row := range rep.Rows {
		if row.Library == "python3.10" || row.Library == "vmlinux" || row.Library == "libcuda.so.1" {
			background += row.Samples
		}
	}
	if background == 0 {
		t.Fatal("noise probability 0.3 produced no background samples")
	}
}

func TestPauseWindowsExcludeSamples(t *testing.T) {
	e := testEngine()
	sess := NewSession(e)
	th := &native.Thread{ID: 1, Cursor: clock.Epoch}
	e.BeginWork()
	// Work before Resume: must not be sampled.
	e.Exec(th, []native.Call{{Kernel: "decode_mcu", Bytes: 4 << 20}})
	sess.Resume(th.Cursor)
	e.Exec(th, []native.Call{{Kernel: "ycc_rgb_convert", Bytes: 40 << 20}})
	sess.Pause(th.Cursor)
	// Work after Pause: must not be sampled.
	e.Exec(th, []native.Call{{Kernel: "jpeg_idct_islow", Bytes: 40 << 20}})
	e.EndWork()
	sess.Detach(th.Cursor)
	cfg := VTuneSampler(3)
	cfg.NoiseProb = 0
	cfg.SkidProb = 0
	rep := sess.Collect(cfg, "vtune")
	if _, ok := rep.Row("jpeg_idct_islow"); ok {
		t.Fatal("sampled a kernel that ran outside the collection window")
	}
	if _, ok := rep.Row("ycc_rgb_convert"); !ok {
		t.Fatal("did not sample the kernel inside the collection window")
	}
}

func TestModelFrontEndBoundGrowsWithLoad(t *testing.T) {
	e := testEngine()
	k, _ := e.Kernel("decode_mcu")
	mk := func(active int) Counters {
		return InvocationCounters(native.Invocation{
			Kernel: k, Start: clock.Epoch, Dur: 10 * time.Millisecond, Bytes: 1 << 20, Active: active,
		})
	}
	low := mk(4)
	high := mk(28)
	if high.FrontEndBoundFrac() <= low.FrontEndBoundFrac() {
		t.Fatalf("front-end bound must grow with load: %.3f vs %.3f",
			low.FrontEndBoundFrac(), high.FrontEndBoundFrac())
	}
	if high.DRAMBoundFrac() >= low.DRAMBoundFrac() {
		t.Fatalf("DRAM bound must shrink with load: %.3f vs %.3f",
			low.DRAMBoundFrac(), high.DRAMBoundFrac())
	}
	// µops delivered per cycle must fall as the front end saturates.
	if high.UopsDelivered/high.Cycles >= low.UopsDelivered/low.Cycles {
		t.Fatal("µop delivery rate must fall with load")
	}
}

func TestRateCountersProportional(t *testing.T) {
	e := testEngine()
	k, _ := e.Kernel("memcpy")
	inv := native.Invocation{Kernel: k, Start: clock.Epoch, Dur: 8 * time.Millisecond, Bytes: 1 << 20, Active: 1}
	half := RateCounters(inv, 4*time.Millisecond)
	whole := InvocationCounters(inv)
	if math.Abs(half.Instructions-whole.Instructions/2) > 1e-6*whole.Instructions {
		t.Fatalf("half-duration instructions %v, want %v", half.Instructions, whole.Instructions/2)
	}
}

func TestReportOrderingAndLookup(t *testing.T) {
	e := testEngine()
	sess, _ := runKernels(e, []string{"decode_mcu", "memset"}, 1<<20, 50)
	cfg := VTuneSampler(7)
	cfg.NoiseProb = 0
	rep := sess.Collect(cfg, "vtune")
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i-1].Counters.CPUTime < rep.Rows[i].Counters.CPUTime {
			t.Fatal("report rows not sorted by CPU time descending")
		}
	}
	if _, ok := rep.Row("no_such_symbol"); ok {
		t.Fatal("Row found a symbol that does not exist")
	}
}

func TestCollectBeforeDetachPanics(t *testing.T) {
	e := testEngine()
	sess := NewSession(e)
	sess.Resume(clock.Epoch)
	defer func() {
		e.Detach()
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sess.Collect(VTuneSampler(0), "vtune")
}

func TestInvocationAt(t *testing.T) {
	k := &native.Kernel{Name: "k", Symbol: "k", Library: "l"}
	tl := []native.Invocation{
		{Kernel: k, Start: clock.Epoch, Dur: time.Millisecond},
		{Kernel: k, Start: clock.Epoch.Add(2 * time.Millisecond), Dur: time.Millisecond},
	}
	cases := []struct {
		at   time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Microsecond, 0},
		{1500 * time.Microsecond, -1}, // gap
		{2500 * time.Microsecond, 1},
		{5 * time.Millisecond, -1}, // past end
	}
	for _, c := range cases {
		if got := invocationAt(tl, clock.Epoch.Add(c.at)); got != c.want {
			t.Errorf("invocationAt(+%v) = %d, want %d", c.at, got, c.want)
		}
	}
}
