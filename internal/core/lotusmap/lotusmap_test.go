package lotusmap

import (
	"encoding/json"
	"testing"
	"time"

	"lotus/internal/data"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/tensor"
)

func TestRunsNeededMatchesPaperExample(t *testing.T) {
	// Paper § IV-B: f=660µs, s=10ms, C=75% -> 20 runs.
	n := RunsNeeded(0.75, 660*time.Microsecond, 10*time.Millisecond)
	if n != 20 && n != 21 {
		t.Fatalf("RunsNeeded = %d, paper computes ~20", n)
	}
	if got := captureProbability(n, 660*time.Microsecond, 10*time.Millisecond); got < 0.75 {
		t.Fatalf("capture probability at n=%d is %.3f < 0.75", n, got)
	}
}

func TestRunsNeededBoundaries(t *testing.T) {
	if n := RunsNeeded(0.75, 20*time.Millisecond, 10*time.Millisecond); n != 1 {
		t.Fatalf("long function needs %d runs, want 1", n)
	}
	if n := RunsNeeded(0.75, 0, 10*time.Millisecond); n != 1 {
		t.Fatalf("degenerate f: %d", n)
	}
	if n := RunsNeeded(0.99, time.Millisecond, 10*time.Millisecond); n <= RunsNeeded(0.5, time.Millisecond, 10*time.Millisecond) {
		t.Fatalf("higher confidence must need more runs (%d)", n)
	}
}

func icCompose() *pipeline.Compose {
	return pipeline.NewCompose(
		&pipeline.Loader{IO: data.IOModel{BaseLatency: 100 * time.Microsecond, BandwidthMBps: 700}},
		&pipeline.RandomResizedCrop{Size: 224},
		&pipeline.RandomHorizontalFlip{},
		&pipeline.ToTensor{},
		&pipeline.Normalize{Mean: []float32{0.5, 0.5, 0.5}, Std: []float32{0.2, 0.2, 0.2}},
	)
}

func icPrototype() pipeline.Sample {
	// A large input, per § IV-B's advice to run short-lived operations with
	// larger inputs so their kernels span enough of the sampling interval.
	return pipeline.Sample{
		Index: 0, FileBytes: 400 << 10, Seed: 12345,
		Width: 1150, Height: 1160, Channels: 3, Dtype: tensor.Uint8,
	}
}

func mapIC(t *testing.T, arch native.Arch, sampler hwsim.SamplerConfig) (*Mapping, *native.Engine, *pipeline.Compose) {
	t.Helper()
	engine := native.NewEngine(arch)
	cfg := DefaultConfig(sampler)
	compose := icCompose()
	return MapPipeline(engine, compose, icPrototype(), cfg), engine, compose
}

func TestMappingRecoversLoaderDecodePath(t *testing.T) {
	m, _, _ := mapIC(t, native.Intel, hwsim.UProfSampler(1))
	loader := map[string]bool{}
	for _, f := range m.Ops["Loader"] {
		loader[f.Symbol] = true
	}
	// The dominant decode kernels must be reconstructed (Table I's rows).
	for _, sym := range []string{"decode_mcu", "jpeg_idct_islow", "ycc_rgb_convert", "ImagingUnpackRGB"} {
		if !loader[sym] {
			t.Errorf("Loader mapping missing %s; got %v", sym, m.Symbols("Loader"))
		}
	}
}

func TestMappingSeparatesOps(t *testing.T) {
	m, _, _ := mapIC(t, native.Intel, hwsim.UProfSampler(2))
	// Resample kernels belong to RandomResizedCrop, not Loader.
	for _, f := range m.Ops["Loader"] {
		if f.Symbol == "ImagingResampleHorizontal_8bpc" {
			t.Fatal("resample kernel leaked into Loader mapping")
		}
	}
	rrc := map[string]bool{}
	for _, f := range m.Ops["RandomResizedCrop"] {
		rrc[f.Symbol] = true
		if f.Symbol == "decode_mcu" {
			t.Fatal("decode kernel leaked into RandomResizedCrop mapping")
		}
	}
	if !rrc["ImagingResampleHorizontal_8bpc"] {
		t.Fatalf("RandomResizedCrop mapping missing resample kernel: %v", m.Symbols("RandomResizedCrop"))
	}
}

func TestMappingQualityAgainstGroundTruth(t *testing.T) {
	m, engine, compose := mapIC(t, native.Intel, hwsim.UProfSampler(3))
	for _, q := range Evaluate(m, engine, compose) {
		if q.Op == "RandomHorizontalFlip" {
			// Branchy, tiny op: recall is inherently probabilistic.
			continue
		}
		if q.Precision < 0.95 {
			t.Errorf("%s precision %.2f (spurious: %v)", q.Op, q.Precision, q.Spurious)
		}
		if q.Op == "Loader" && q.Recall < 0.6 {
			t.Errorf("Loader recall %.2f (missing: %v)", q.Recall, q.Missing)
		}
	}
}

func TestVendorSpecificMappings(t *testing.T) {
	intel, _, _ := mapIC(t, native.Intel, hwsim.UProfSampler(4))
	amd, _, _ := mapIC(t, native.AMD, hwsim.UProfSampler(4))
	has := func(m *Mapping, op, sym string) bool {
		for _, f := range m.Ops[op] {
			if f.Symbol == sym {
				return true
			}
		}
		return false
	}
	if !has(intel, "Loader", "__memcpy_avx_unaligned_erms") {
		t.Error("Intel Loader mapping missing __memcpy_avx_unaligned_erms")
	}
	if has(amd, "Loader", "__memcpy_avx_unaligned_erms") {
		t.Error("AMD mapping contains the Intel memcpy symbol")
	}
	if !has(amd, "Loader", "__memcpy_avx_unaligned") {
		t.Error("AMD Loader mapping missing __memcpy_avx_unaligned")
	}
	if amd.Arch != "amd" || intel.Arch != "intel" {
		t.Errorf("arch labels: %s / %s", intel.Arch, amd.Arch)
	}
}

func TestSleepGapPreventsCrossOpContamination(t *testing.T) {
	// Ablation: with the gap disabled and an aggressive skid, the mapping of
	// a later op picks up functions from the preceding op more often than
	// with the gap enabled.
	engine := native.NewEngine(native.Intel)
	sampler := hwsim.UProfSampler(5)
	sampler.SkidProb = 0.9
	sampler.SkidWindow = 400 * time.Microsecond
	spurious := func(gap time.Duration) int {
		cfg := DefaultConfig(sampler)
		cfg.GapSleep = gap
		compose := icCompose()
		m := MapPipeline(engine, compose, icPrototype(), cfg)
		count := 0
		truth := map[string]bool{}
		for _, k := range compose.Transforms[3].Kernels() { // ToTensor
			if kk, ok := engine.Kernel(k); ok {
				truth[kk.Symbol] = true
			}
		}
		for _, f := range m.Ops["ToTensor"] {
			if !truth[f.Symbol] {
				count += f.Samples
			}
		}
		return count
	}
	with := spurious(time.Second)
	without := spurious(0)
	if without <= with {
		t.Skipf("no contamination difference observed (with=%d without=%d) — schedule too clean at this seed", with, without)
	}
}

func TestMappingJSONRoundTrip(t *testing.T) {
	m, _, _ := mapIC(t, native.Intel, hwsim.UProfSampler(6))
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeMapping(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Arch != m.Arch || len(back.Ops) != len(m.Ops) {
		t.Fatalf("round trip lost data: %d vs %d ops", len(back.Ops), len(m.Ops))
	}
	for op, fs := range m.Ops {
		if len(back.Ops[op]) != len(fs) {
			t.Fatalf("op %s lost functions", op)
		}
	}
}

// decodeMapping reads a mapping back as Encode wrote it.
func decodeMapping(b []byte) (*Mapping, error) {
	var m Mapping
	return &m, json.Unmarshal(b, &m)
}

func TestOpsForSymbolSharedFunction(t *testing.T) {
	m := &Mapping{Ops: map[string][]MappedFunc{
		"Loader":            {{Symbol: "__memcpy_avx_unaligned_erms", Library: "libc.so.6"}},
		"RandomResizedCrop": {{Symbol: "ImagingResampleVertical_8bpc", Library: "pil"}},
		"ToTensor":          {{Symbol: "__memcpy_avx_unaligned_erms", Library: "libc.so.6"}},
	}}
	got := m.OpsForSymbol("__memcpy_avx_unaligned_erms", "libc.so.6")
	if len(got) != 2 || got[0] != "Loader" || got[1] != "ToTensor" {
		t.Fatalf("OpsForSymbol = %v", got)
	}
}

func TestAttributeSplitsByWeights(t *testing.T) {
	m := &Mapping{Ops: map[string][]MappedFunc{
		"Loader":   {{Symbol: "memfn", Library: "libc"}, {Symbol: "decode", Library: "libjpeg"}},
		"ToTensor": {{Symbol: "memfn", Library: "libc"}},
	}}
	report := &hwsim.Report{Rows: []hwsim.FuncRow{
		{Symbol: "memfn", Library: "libc", Counters: hwsim.Counters{CPUTime: 100 * time.Millisecond, Instructions: 1000}},
		{Symbol: "decode", Library: "libjpeg", Counters: hwsim.Counters{CPUTime: 50 * time.Millisecond, Instructions: 500}},
		{Symbol: "unrelated", Library: "x", Counters: hwsim.Counters{CPUTime: 7 * time.Millisecond}},
	}}
	weights := map[string]float64{"Loader": 0.75, "ToTensor": 0.25}
	att := Attribute(report, m, weights)

	loader := att.PerOp["Loader"]
	tt := att.PerOp["ToTensor"]
	// memfn splits 75/25; decode goes fully to Loader.
	if loader.CPUTime != 75*time.Millisecond+50*time.Millisecond {
		t.Fatalf("Loader CPU time %v", loader.CPUTime)
	}
	if tt.CPUTime != 25*time.Millisecond {
		t.Fatalf("ToTensor CPU time %v", tt.CPUTime)
	}
	if att.Unmapped.CPUTime != 7*time.Millisecond || len(att.UnmappedSymbols) != 1 {
		t.Fatalf("unmapped %v / %v", att.Unmapped.CPUTime, att.UnmappedSymbols)
	}
	// Counter totals are conserved (mapped rows only).
	if got := loader.Instructions + tt.Instructions; got != 1500 {
		t.Fatalf("instructions not conserved: %v", got)
	}
}

func TestAttributeUniformFallback(t *testing.T) {
	m := &Mapping{Ops: map[string][]MappedFunc{
		"A": {{Symbol: "f", Library: "l"}},
		"B": {{Symbol: "f", Library: "l"}},
	}}
	report := &hwsim.Report{Rows: []hwsim.FuncRow{
		{Symbol: "f", Library: "l", Counters: hwsim.Counters{CPUTime: 10 * time.Millisecond}},
	}}
	att := Attribute(report, m, map[string]float64{}) // no weights known
	if att.PerOp["A"].CPUTime != 5*time.Millisecond || att.PerOp["B"].CPUTime != 5*time.Millisecond {
		t.Fatalf("uniform split wrong: %v / %v", att.PerOp["A"].CPUTime, att.PerOp["B"].CPUTime)
	}
}

func TestMappingStringRendering(t *testing.T) {
	m, _, _ := mapIC(t, native.Intel, hwsim.UProfSampler(7))
	s := m.String()
	if s == "" || len(m.Ops) == 0 {
		t.Fatal("empty mapping rendering")
	}
	att := Attribute(&hwsim.Report{}, m, nil)
	if att.String() == "" {
		t.Fatal("empty attribution rendering")
	}
}
