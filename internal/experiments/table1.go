package experiments

import (
	"fmt"
	"strings"

	"lotus/internal/core/lotusmap"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/workloads"
)

// Table1Result is the reconstructed Python→C/C++ mapping for the IC
// pipeline on both vendors, with quality metrics against the simulator's
// ground truth.
type Table1Result struct {
	Intel *lotusmap.Mapping
	AMD   *lotusmap.Mapping
	// Quality per vendor, per op.
	IntelQuality []lotusmap.Quality
	AMDQuality   []lotusmap.Quality
}

// paperTable1 lists the functions the paper's Table I names for the two ops
// it shows, in the order Render reports which were recovered.
var paperTable1 = []struct {
	op   string
	want []string
}{
	{"Loader", []string{
		"decompress_onepass", "jpeg_idct_islow", "jpeg_idct_16x16",
		"ycc_rgb_convert", "decode_mcu", "ImagingUnpackRGB",
		"jpeg_fill_bit_buffer",
	}},
	{"RandomResizedCrop", []string{
		"ImagingResampleHorizontal_8bpc", "ImagingResampleVertical_8bpc",
	}},
}

// RunTable1 reconstructs the IC mapping on Intel (VTune-like, 10 ms) and AMD
// (uProf-like, 1 ms).
func RunTable1(scale Scale) *Table1Result {
	res := &Table1Result{}
	for _, arch := range []native.Arch{native.Intel, native.AMD} {
		engine := native.NewEngine(arch, native.DefaultCPU())
		var sampler hwsim.SamplerConfig
		if arch == native.Intel {
			sampler = hwsim.VTuneSampler(1)
		} else {
			sampler = hwsim.UProfSampler(1)
		}
		cfg := lotusmap.DefaultConfig(sampler, hwsim.DefaultModel(engine.CPU()))
		if scale == Small {
			cfg.MaxRuns = 20
		}
		spec := workloads.ICSpec(4, 1)
		spec.Arch = arch
		proto := spec.Prototype()
		// § IV-B: short-lived operations are profiled with a larger input.
		proto.Width, proto.Height = proto.Width*2, proto.Height*2
		proto.FileBytes *= 4
		m := lotusmap.MapPipeline(engine, spec.MappingCompose(), proto, cfg)
		q := lotusmap.Evaluate(m, engine, spec.Compose(nil))
		if arch == native.Intel {
			res.Intel, res.IntelQuality = m, q
		} else {
			res.AMD, res.AMDQuality = m, q
		}
	}
	return res
}

// Render prints the Table I layout plus recovery checks against the paper's
// listed functions and precision/recall against simulator ground truth.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("TABLE I — Python-op → C/C++ function mapping (reconstructed by LotusMap)\n\n")
	for _, v := range []struct {
		name string
		m    *lotusmap.Mapping
		q    []lotusmap.Quality
	}{{"Intel (VTune, 10ms sampling)", r.Intel, r.IntelQuality}, {"AMD (uProf, 1ms sampling)", r.AMD, r.AMDQuality}} {
		fmt.Fprintf(&b, "--- %s ---\n", v.name)
		b.WriteString(v.m.String())
		b.WriteString("paper-listed functions recovered:\n")
		for _, row := range paperTable1 {
			got := map[string]bool{}
			for _, f := range v.m.Ops[row.op] {
				got[f.Symbol] = true
			}
			hits := 0
			var missing []string
			for _, sym := range row.want {
				if got[sym] {
					hits++
				} else {
					missing = append(missing, sym)
				}
			}
			fmt.Fprintf(&b, "  %-20s %d/%d", row.op, hits, len(row.want))
			if len(missing) > 0 {
				fmt.Fprintf(&b, " (missing: %s)", strings.Join(missing, ", "))
			}
			b.WriteString("\n")
		}
		b.WriteString("quality vs simulator ground truth:\n")
		for _, q := range v.q {
			fmt.Fprintf(&b, "  %-28s precision=%.2f recall=%.2f\n", q.Op, q.Precision, q.Recall)
		}
		b.WriteString("\n")
	}
	return b.String()
}
