package native

import (
	"testing"
	"time"

	"lotus/internal/clock"
)

func TestInventoryUniqueSymbolsPerArch(t *testing.T) {
	for _, arch := range []Arch{Intel, AMD} {
		seen := map[string]string{}
		for _, k := range Inventory() {
			if !k.availableOn(arch) {
				continue
			}
			key := k.Symbol + "@" + k.Library
			if prev, dup := seen[key]; dup {
				t.Errorf("%s: symbol %s defined by kernels %q and %q", arch, key, prev, k.Name)
			}
			seen[key] = k.Name
		}
	}
}

func TestVendorSpecificSymbols(t *testing.T) {
	intel := NewEngine(Intel, DefaultCPU())
	amd := NewEngine(AMD, DefaultCPU())

	ki, ok := intel.Kernel("memcpy")
	if !ok || ki.Symbol != "__memcpy_avx_unaligned_erms" {
		t.Fatalf("intel memcpy = %+v", ki)
	}
	ka, ok := amd.Kernel("memcpy")
	if !ok || ka.Symbol != "__memcpy_avx_unaligned" || ka.Library != "libc-2.31.so" {
		t.Fatalf("amd memcpy = %+v", ka)
	}
	if _, ok := amd.Kernel("memmove"); ok {
		t.Fatal("memmove should be Intel-specific (Table I)")
	}
	if _, ok := intel.Kernel("sep_upsample"); ok {
		t.Fatal("sep_upsample should be AMD-specific (Table I)")
	}
}

func TestDurationScalesLinearlyWithBytes(t *testing.T) {
	e := NewEngine(Intel, DefaultCPU())
	k, _ := e.Kernel("decode_mcu")
	d1 := e.Duration(k, 1000, 1)
	d2 := e.Duration(k, 2000, 1)
	if diff := d2 - 2*d1; diff < -time.Nanosecond || diff > time.Nanosecond {
		t.Fatalf("duration not linear: %v vs %v", d1, d2)
	}
	// decode_mcu at 38 cyc/B, 3.2 GHz: 1000 B -> 45000 cycles -> ~14.06 µs.
	cyclesNS := 38.0 * 1000 / 3.2
	want := time.Duration(cyclesNS)
	if d1 < want-time.Microsecond || d1 > want+time.Microsecond {
		t.Fatalf("d1 = %v, want ~%v", d1, want)
	}
}

func TestMemoryKernelsStretchUnderContention(t *testing.T) {
	e := NewEngine(Intel, DefaultCPU())
	mem, _ := e.Kernel("memcpy")
	cmp, _ := e.Kernel("decode_mcu")
	if e.Duration(mem, 1<<20, 16) <= e.Duration(mem, 1<<20, 1) {
		t.Fatal("memory kernel should stretch with active workers")
	}
	if e.Duration(cmp, 1<<20, 16) != e.Duration(cmp, 1<<20, 1) {
		t.Fatal("compute kernel should not stretch below core count")
	}
	// Oversubscription past core count stretches everything.
	if e.Duration(cmp, 1<<20, 64) <= e.Duration(cmp, 1<<20, 32) {
		t.Fatal("compute kernel should stretch past core count")
	}
}

func TestExecAdvancesCursorAndRecords(t *testing.T) {
	e := NewEngine(Intel, DefaultCPU())
	rec := NewRecording()
	e.Attach(rec)
	th := &Thread{ID: 3, Cursor: clock.Epoch}
	total := e.Exec(th, []Call{
		{Kernel: "decode_mcu", Bytes: 10000},
		{Kernel: "ycc_rgb_convert", Bytes: 60000},
	})
	if th.Cursor.Sub(clock.Epoch) != total {
		t.Fatalf("cursor advanced %v, want %v", th.Cursor.Sub(clock.Epoch), total)
	}
	tl := rec.Timeline(3)
	if len(tl) != 2 {
		t.Fatalf("recorded %d invocations, want 2", len(tl))
	}
	if tl[0].Kernel.Name != "decode_mcu" || tl[1].Kernel.Name != "ycc_rgb_convert" {
		t.Fatalf("wrong kernels recorded: %s, %s", tl[0].Kernel.Name, tl[1].Kernel.Name)
	}
	if !tl[1].Start.Equal(tl[0].End()) {
		t.Fatal("invocations not contiguous on the thread timeline")
	}
	if rec.Len() != 2 {
		t.Fatalf("Len = %d", rec.Len())
	}
}

func TestExecWithoutRecordingIsSilent(t *testing.T) {
	e := NewEngine(Intel, DefaultCPU())
	th := &Thread{ID: 0, Cursor: clock.Epoch}
	e.Exec(th, []Call{{Kernel: "memset", Bytes: 100}})
	rec := NewRecording()
	e.Attach(rec)
	e.Exec(th, []Call{{Kernel: "memset", Bytes: 100}})
	e.Detach()
	e.Exec(th, []Call{{Kernel: "memset", Bytes: 100}})
	if rec.Len() != 1 {
		t.Fatalf("recorded %d invocations, want 1 (only while attached)", rec.Len())
	}
}

func TestExecUnknownKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine(Intel, DefaultCPU())
	e.Exec(&Thread{}, []Call{{Kernel: "sep_upsample", Bytes: 1}}) // AMD-only
}

func TestBeginEndWorkTracksConcurrency(t *testing.T) {
	e := NewEngine(Intel, DefaultCPU())
	if n := e.BeginWork(); n != 1 {
		t.Fatalf("first BeginWork = %d", n)
	}
	if n := e.BeginWork(); n != 2 {
		t.Fatalf("second BeginWork = %d", n)
	}
	e.EndWork()
	if e.active != 1 {
		t.Fatalf("active = %d after two BeginWork and one EndWork", e.active)
	}
	e.EndWork()
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced EndWork must panic")
		}
	}()
	e.EndWork()
}

func TestRecordingConcurrencyCaptured(t *testing.T) {
	e := NewEngine(Intel, DefaultCPU())
	rec := NewRecording()
	e.Attach(rec)
	e.BeginWork()
	e.BeginWork()
	e.Exec(&Thread{ID: 1, Cursor: clock.Epoch}, []Call{{Kernel: "memcpy", Bytes: 4096}})
	if tl := rec.Timeline(1); tl[0].Active != 2 {
		t.Fatalf("Active = %d, want 2", tl[0].Active)
	}
}

func TestCostParametersSane(t *testing.T) {
	for _, k := range Inventory() {
		if k.CyclesPerByte <= 0 || k.InstrPerByte <= 0 {
			t.Errorf("kernel %s has non-positive cost parameters", k.Name)
		}
		if k.FrontEndBound < 0 || k.FrontEndBound > 1 || k.DRAMBound < 0 || k.DRAMBound > 1 {
			t.Errorf("kernel %s has out-of-range bound fractions", k.Name)
		}
		if k.Library == "" || k.Symbol == "" {
			t.Errorf("kernel %s missing symbol/library", k.Name)
		}
	}
}
