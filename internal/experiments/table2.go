package experiments

import (
	"fmt"
	"strings"

	"lotus/internal/core/trace"
	"lotus/internal/workloads"
)

// Table2Result holds per-operation elapsed-time statistics for the three
// pipelines (paper Table II).
type Table2Result struct {
	Pipelines []Table2Pipeline
}

// Table2Pipeline is one block of the table.
type Table2Pipeline struct {
	Kind    workloads.Kind
	Order   []string
	Stats   map[string]trace.OpStat
	Samples int
}

// paperTable2 records the paper's Avg row (ms) for comparison in Render.
var paperTable2 = map[workloads.Kind]map[string]float64{
	workloads.IC: {"Loader": 4.76, "RandomResizedCrop": 1.11, "RandomHorizontalFlip": 0.06, "ToTensor": 0.34, "Normalize": 0.21, "Collate": 49.76},
	workloads.IS: {"Loader": 72.03, "RandBalancedCrop": 91.10, "RandomFlip": 4.39, "Cast": 2.16, "RandomBrightnessAugmentation": 0.78, "GaussianNoise": 6.46, "Collate": 14.24},
	workloads.OD: {"Loader": 9.59, "Resize": 9.43, "RandomHorizontalFlip": 0.52, "ToTensor": 6.75, "Normalize": 7.8, "Collate": 7.39},
}

// RunTable2 runs the three pipelines with their Table II configurations (IC:
// b=128, 1 GPU, 1 loader; IS: b=2, 8 loaders; OD: b=2, 4 loaders) and
// collects per-op statistics.
func RunTable2(scale Scale) *Table2Result {
	specs := []workloads.Spec{
		workloads.ICSpec(scale.samples(384, 6400), 11),
		workloads.ISSpec(scale.samples(64, 420), 12),
		workloads.ODSpec(scale.samples(128, 2000), 13),
	}
	res := &Table2Result{}
	for _, spec := range specs {
		a, _ := tracedRun(spec)
		res.Pipelines = append(res.Pipelines, Table2Pipeline{
			Kind:    spec.Kind,
			Order:   spec.OpOrder(),
			Stats:   a.OpStats(),
			Samples: spec.NumSamples,
		})
	}
	return res
}

// Render prints the Table II layout per pipeline, with the paper's Avg row
// for reference.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("TABLE II — elapsed time per preprocessing operation (ms per image; Collate per batch)\n\n")
	for _, p := range r.Pipelines {
		fmt.Fprintf(&b, "--- %s (%d samples) ---\n", p.Kind, p.Samples)
		b.WriteString(trace.FormatOpStats(p.Stats, p.Order))
		b.WriteString("paper Avg ")
		for _, op := range p.Order {
			if v, ok := paperTable2[p.Kind][op]; ok {
				fmt.Fprintf(&b, " %11.2f ", v)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteString("\n\n")
	}
	return b.String()
}
