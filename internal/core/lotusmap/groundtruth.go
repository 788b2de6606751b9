package lotusmap

import (
	"sort"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/hwsim"
	"lotus/internal/native"
)

// This file provides the validation oracle the simulator makes possible:
// because the native recording carries every kernel invocation and the
// LotusTrace log carries every operation span, the *true* per-operation
// hardware counters can be computed exactly, and any attribution scheme can
// be scored against them. The paper had no such oracle — it could only argue
// the splitting heuristic qualitatively (e.g. the 30.21% RandomResizedCrop
// inflation example).

// opSpan is one operation execution interval on one pid.
type opSpan struct {
	start, end time.Time
	op         string
}

// TrueOpCounters joins a native recording with LotusTrace op records: each
// kernel invocation is assigned to the operation whose span covers it on the
// same pid/thread, and the counter model's counters accumulate per operation.
// Invocations covered by no op span (e.g. ambient work) are summed under "".
func TrueOpCounters(rec *native.Recording, records []trace.Record) map[string]hwsim.Counters {
	spans := map[int][]opSpan{}
	for _, r := range records {
		if r.Kind != trace.KindOp {
			continue
		}
		spans[r.PID] = append(spans[r.PID], opSpan{start: r.Start, end: r.End(), op: r.Op})
	}
	for pid := range spans {
		s := spans[pid]
		sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	}

	out := map[string]hwsim.Counters{}
	for _, th := range rec.Threads() {
		tl := rec.Timeline(th)
		ss := spans[th]
		for _, inv := range tl {
			op := opAt(ss, inv.Start)
			c := out[op]
			c.Add(hwsim.InvocationCounters(inv))
			out[op] = c
		}
	}
	return out
}

// opAt finds the op span containing t (spans sorted by start).
func opAt(spans []opSpan, t time.Time) string {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].start.After(t) })
	if i == 0 {
		return ""
	}
	s := spans[i-1]
	if !t.After(s.end) {
		return s.op
	}
	return ""
}

// AttributionError scores an attribution against the oracle: the sum over
// operations of |attributed CPU time − true CPU time|, normalized by the
// total true CPU time. 0 is perfect; 1 means everything landed on the wrong
// operation.
func AttributionError(att *Attribution, truth map[string]hwsim.Counters) float64 {
	var totalTrue, err float64
	ops := map[string]bool{}
	for op := range truth {
		if op != "" {
			ops[op] = true
		}
	}
	for op := range att.PerOp {
		ops[op] = true
	}
	for op := range ops {
		tc := truth[op].CPUTime
		ac := att.PerOp[op].CPUTime
		totalTrue += float64(tc)
		d := float64(ac - tc)
		if d < 0 {
			d = -d
		}
		err += d
	}
	if totalTrue == 0 {
		return 0
	}
	return err / totalTrue
}

// AttributeRefined implements the splitting refinement the paper leaves as
// future work: instead of weighting a shared function's counters by the
// operations' *total* elapsed times, it weights by the expected time each
// operation spends *in that function* — the op's elapsed time multiplied by
// the function's sample share within the op's own isolation profile (the
// "mix of different C/C++ functions in a Python function").
func AttributeRefined(report *hwsim.Report, m *Mapping, opWeights map[string]float64) *Attribution {
	// share[op][symbol@lib] = fraction of op's isolation samples in that
	// function.
	type key struct{ sym, lib string }
	share := map[string]map[key]float64{}
	for op, funcs := range m.Ops {
		total := 0
		for _, f := range funcs {
			total += f.Samples
		}
		if total == 0 {
			continue
		}
		share[op] = make(map[key]float64, len(funcs))
		for _, f := range funcs {
			share[op][key{f.Symbol, f.Library}] = float64(f.Samples) / float64(total)
		}
	}

	att := &Attribution{PerOp: make(map[string]hwsim.Counters)}
	for _, row := range report.Rows {
		ops := m.OpsForSymbol(row.Symbol, row.Library)
		if len(ops) == 0 {
			att.Unmapped.Add(row.Counters)
			att.UnmappedSymbols = append(att.UnmappedSymbols, row.Symbol)
			continue
		}
		k := key{row.Symbol, row.Library}
		var total float64
		weights := make([]float64, len(ops))
		for i, op := range ops {
			weights[i] = opWeights[op] * share[op][k]
			total += weights[i]
		}
		for i, op := range ops {
			s := 1.0 / float64(len(ops))
			if total > 0 {
				s = weights[i] / total
			}
			c := att.PerOp[op]
			c.Add(row.Counters.Scale(s))
			att.PerOp[op] = c
		}
	}
	sort.Strings(att.UnmappedSymbols)
	return att
}
