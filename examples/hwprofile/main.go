// Hardware-profiling case study: the full LotusMap workflow of the paper's
// § V-D on the simulated substrate.
//
//  1. Reconstruct the operation → native-function mapping by profiling each
//     IC operation in isolation (warm-ups, sleep gaps, multi-run capture).
//  2. Run a whole epoch under the VTune-like profiler, producing a
//     function-granularity counter report (hundreds of symbols, no
//     operation labels — the attribution gap).
//  3. Combine the mapping with LotusTrace elapsed-time weights to attribute
//     counters to operations, and show how the microarchitectural story
//     changes between 8 and 24 data loader workers.
//
// Run: go run ./examples/hwprofile
package main

import (
	"fmt"
	"time"

	"lotus"
)

func main() {
	engine := lotus.NewEngine(lotus.Intel)

	// Step 1: the one-time mapping step.
	spec := lotus.ICWorkload(4, 1)
	cfg := lotus.DefaultMapConfig(lotus.VTuneSampler(1))
	proto := spec.Prototype()
	proto.Width, proto.Height, proto.FileBytes = proto.Width*2, proto.Height*2, proto.FileBytes*4
	fmt.Println("reconstructing the op -> C/C++ mapping (LotusMap)...")
	mapping := lotus.MapPipeline(engine, spec.MappingCompose(), proto, cfg)
	for _, op := range []string{"Loader", "RandomResizedCrop"} {
		fmt.Printf("\n%s maps to:\n", op)
		for _, f := range mapping.Symbols(op) {
			fmt.Printf("  %-40s %s\n", f.Symbol, f.Library)
		}
	}
	fmt.Println("\nmapping quality vs simulator ground truth:")
	for _, q := range lotus.EvaluateMapping(mapping, engine, spec.MappingCompose()) {
		fmt.Printf("  %-28s precision=%.2f recall=%.2f\n", q.Op, q.Precision, q.Recall)
	}

	// Steps 2+3 at two worker counts.
	for _, workers := range []int{8, 24} {
		fmt.Printf("\n== epoch with %d data loaders under the VTune-like profiler ==\n", workers)
		runAndAttribute(mapping, workers)
	}
}

func runAndAttribute(mapping *lotus.Mapping, workers int) {
	engine := lotus.NewEngine(lotus.Intel)
	sess := lotus.NewSession(engine)

	spec := lotus.ICWorkload(128*50, 2)
	spec.BatchSize, spec.GPUs, spec.NumWorkers = 128, 4, workers

	// Collect LotusTrace records in memory for the weights.
	var records []lotus.Record
	hooks := &lotus.Hooks{
		OnOp: func(pid, batchID, sampleIndex int, op string, start time.Time, dur time.Duration) {
			records = append(records, lotus.Record{Kind: lotus.KindOp, PID: pid, BatchID: batchID, SampleIndex: sampleIndex, Op: op, Start: start, Dur: dur})
		},
	}

	sess.Resume(lotus.Epoch)
	stats, _, sim := spec.RunWithEngine(hooks, engine)
	sess.Detach(sim.Now())

	report := sess.Collect(lotus.VTuneSampler(3), "vtune")
	fmt.Printf("epoch (virtual): %v; profiler saw %d distinct functions\n",
		stats.Elapsed.Round(time.Millisecond), len(report.Rows))

	analysis := lotus.Analyze(records)
	weights := analysis.OpWeights(spec.OpOrder())
	att := lotus.Attribute(report, mapping, weights)
	fmt.Print(att.String())
}
