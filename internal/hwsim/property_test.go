package hwsim

import (
	"testing"
	"testing/quick"
	"time"

	"lotus/internal/clock"
	"lotus/internal/native"
)

// TestPropertySamplesStayInsideWindows: no sample may carry a timestamp
// outside the collection windows it was gathered from.
func TestPropertySamplesStayInsideWindows(t *testing.T) {
	e := testEngine()
	if err := quick.Check(func(nCalls uint8, bytesRaw uint16, winFrac uint8, seed int64) bool {
		rec := native.NewRecording()
		e.Attach(rec)
		th := &native.Thread{ID: 1, Cursor: clock.Epoch}
		n := int(nCalls%30) + 5
		for i := 0; i < n; i++ {
			e.Exec(th, []native.Call{{Kernel: "decode_mcu", Bytes: int(bytesRaw)%(1<<18) + 1024}})
		}
		e.Detach()
		total := th.Cursor.Sub(clock.Epoch)
		// A window covering a fraction of the run, mid-timeline.
		frac := time.Duration(int(winFrac%80)+10) * total / 100
		w := TimeRange{Start: clock.Epoch.Add(total / 10), End: clock.Epoch.Add(total/10 + frac)}
		cfg := UProfSampler(seed)
		samples := NewSampler(cfg, DefaultModel(e.CPU())).Run(rec, []TimeRange{w})
		for _, s := range samples {
			if s.T.Before(w.Start) || !s.T.Before(w.End) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySampleCountBounded: the number of samples in a window never
// exceeds window/interval + 1 per thread.
func TestPropertySampleCountBounded(t *testing.T) {
	e := testEngine()
	if err := quick.Check(func(nCalls uint8, seed int64) bool {
		rec := native.NewRecording()
		e.Attach(rec)
		th := &native.Thread{ID: 1, Cursor: clock.Epoch}
		for i := 0; i < int(nCalls%20)+5; i++ {
			e.Exec(th, []native.Call{{Kernel: "jpeg_idct_islow", Bytes: 1 << 18}})
		}
		e.Detach()
		w := TimeRange{Start: clock.Epoch, End: th.Cursor}
		cfg := UProfSampler(seed)
		samples := NewSampler(cfg, DefaultModel(e.CPU())).Run(rec, []TimeRange{w})
		limit := int(w.End.Sub(w.Start)/cfg.Interval) + 1
		return len(samples) <= limit
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCountersScaleCompose: Scale(a).Add(Scale(b)) == Scale(a+b) on
// the linear fields.
func TestPropertyCountersScale(t *testing.T) {
	if err := quick.Check(func(cpuUs uint32, instr uint32, a8, b8 uint8) bool {
		c := Counters{
			CPUTime:      time.Duration(cpuUs) * time.Microsecond,
			Instructions: float64(instr),
			Cycles:       float64(instr) * 1.5,
		}
		fa := float64(a8%100) / 100
		fb := float64(b8%100) / 100
		var lhs Counters
		lhs.Add(c.Scale(fa))
		lhs.Add(c.Scale(fb))
		rhs := c.Scale(fa + fb)
		near := func(x, y float64) bool {
			d := x - y
			if d < 0 {
				d = -d
			}
			return d <= 1e-6*(1+y)
		}
		return near(lhs.Instructions, rhs.Instructions) && near(lhs.Cycles, rhs.Cycles)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// engineKernels returns the kernels of the inventory that e has.
func engineKernels(e *native.Engine) []*native.Kernel {
	var out []*native.Kernel
	for _, k := range native.Inventory() {
		if ek, ok := e.Kernel(k.Name); ok {
			out = append(out, ek)
		}
	}
	return out
}

// TestPropertyModelCountersNonNegative for arbitrary invocations.
func TestPropertyModelCountersNonNegative(t *testing.T) {
	e := testEngine()
	m := DefaultModel(e.CPU())
	ks := engineKernels(e)
	if err := quick.Check(func(kIdx uint8, bytesRaw uint32, durUs uint32, active uint8) bool {
		k := ks[int(kIdx)%len(ks)]
		inv := native.Invocation{
			Kernel: k,
			Start:  clock.Epoch,
			Dur:    time.Duration(durUs%1e6+1) * time.Microsecond,
			Bytes:  int(bytesRaw % (1 << 24)),
			Active: int(active%64) + 1,
		}
		c := m.InvocationCounters(inv)
		if c.Cycles < 0 || c.Instructions < 0 || c.UopsDelivered < 0 ||
			c.FrontEndBoundSlots < 0 || c.DRAMBoundCycles < 0 || c.L1Miss < 0 || c.LLCMiss < 0 {
			return false
		}
		// Derived fractions stay in [0, 1].
		fe := c.FrontEndBoundFrac()
		dr := c.DRAMBoundFrac()
		return fe >= 0 && fe <= 1 && dr >= 0 && dr <= 1
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTopDownSumsToOne: the level-1 breakdown partitions all slots.
func TestPropertyTopDownSumsToOne(t *testing.T) {
	e := testEngine()
	m := DefaultModel(e.CPU())
	ks := engineKernels(e)
	if err := quick.Check(func(kIdx uint8, bytesRaw uint32, active uint8) bool {
		k := ks[int(kIdx)%len(ks)]
		bytes := int(bytesRaw%(1<<22)) + 1024
		inv := native.Invocation{
			Kernel: k, Start: clock.Epoch,
			Dur:    e.Duration(k, bytes, int(active%48)+1),
			Bytes:  bytes,
			Active: int(active%48) + 1,
		}
		td := m.InvocationCounters(inv).TopDown()
		sum := td.Retiring + td.BadSpeculation + td.FrontEndBound + td.BackEndBound
		if sum < 0.99 || sum > 1.01 {
			return false
		}
		for _, f := range []float64{td.Retiring, td.BadSpeculation, td.FrontEndBound, td.BackEndBound} {
			if f < 0 || f > 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTopDownBranchyVsStreaming: compute-class kernels speculate badly more
// than streaming memory kernels.
func TestTopDownBranchyVsStreaming(t *testing.T) {
	e := testEngine()
	m := DefaultModel(e.CPU())
	mk := func(name string) TopDown {
		k, ok := e.Kernel(name)
		if !ok {
			t.Fatalf("missing kernel %s", name)
		}
		return m.InvocationCounters(native.Invocation{
			Kernel: k, Start: clock.Epoch, Dur: e.Duration(k, 1<<20, 1), Bytes: 1 << 20, Active: 1,
		}).TopDown()
	}
	if mk("decode_mcu").BadSpeculation <= mk("memcpy").BadSpeculation {
		t.Fatal("entropy decode should mispredict more than memcpy")
	}
	if mk("memcpy").BackEndBound <= mk("decode_mcu").BackEndBound {
		t.Fatal("memcpy should be more back-end bound than decode")
	}
}
