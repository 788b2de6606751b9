// Command lotus-map runs the LotusMap preparatory step: it profiles each
// preprocessing operation of a pipeline in isolation under the simulated
// hardware profiler and reconstructs the operation → C/C++ function mapping
// (the paper's Table I / mapping_funcs.json artifact).
//
// Usage:
//
//	lotus-map -workload IC -arch intel -out mapping_funcs.json
package main

import (
	"flag"
	"fmt"
	"os"

	"lotus/internal/core/lotusmap"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "IC", "pipeline: IC, ICA, IS, or OD")
		arch     = flag.String("arch", "intel", "simulated CPU vendor: intel or amd")
		outPath  = flag.String("out", "mapping_funcs.json", "mapping JSON output path")
		seed     = flag.Int64("seed", 1, "sampler randomness root")
		evaluate = flag.Bool("evaluate", true, "score the mapping against simulator ground truth")
	)
	flag.Parse()

	spec, err := workloads.New(workloads.Kind(*workload), 4, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-map: %v\n", err)
		os.Exit(2)
	}

	vendor := native.Intel
	sampler := hwsim.VTuneSampler(*seed)
	profName := "VTune (10ms user-mode sampling)"
	if *arch == "amd" {
		vendor = native.AMD
		sampler = hwsim.UProfSampler(*seed)
		profName = "uProf (1ms user-mode sampling)"
	}
	spec.Arch = vendor

	engine := native.NewEngine(vendor)
	cfg := lotusmap.DefaultConfig(sampler)

	// § IV-B: profile with a larger input so short-lived kernels span more
	// of the sampling interval.
	proto := spec.Prototype()
	proto.Width *= 2
	proto.Height *= 2
	proto.FileBytes *= 4
	if proto.Depth > 0 {
		proto.Depth *= 2
	}

	fmt.Printf("mapping %s pipeline on %s via %s ...\n", spec.Kind, vendor, profName)
	m := lotusmap.MapPipeline(engine, spec.MappingCompose(), proto, cfg)
	fmt.Println(m.String())

	if *evaluate {
		fmt.Println("quality vs simulator ground truth:")
		for _, q := range lotusmap.Evaluate(m, engine, spec.MappingCompose()) {
			fmt.Printf("  %-28s precision=%.2f recall=%.2f\n", q.Op, q.Precision, q.Recall)
		}
	}

	blob, err := m.Encode()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-map: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lotus-map: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *outPath)
}
