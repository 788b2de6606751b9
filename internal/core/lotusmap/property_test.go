package lotusmap

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"lotus/internal/hwsim"
)

// TestPropertyRunsNeededSatisfiesConfidence: for any (C, f, s) the computed
// run count really achieves the requested capture probability, and one fewer
// run would not (tightness).
func TestPropertyRunsNeededSatisfiesConfidence(t *testing.T) {
	if err := quick.Check(func(cRaw, fRaw, sRaw uint16) bool {
		confidence := 0.5 + float64(cRaw%45)/100 // 0.50..0.94
		s := time.Duration(sRaw%20000+100) * time.Microsecond
		f := time.Duration(fRaw%10000+1) * time.Microsecond
		if f > s {
			f = s / 2
		}
		n := RunsNeeded(confidence, f, s)
		if captureProbability(n, f, s) < confidence-1e-9 {
			return false
		}
		if n > 1 && captureProbability(n-1, f, s) >= confidence {
			return false // not minimal
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// captureProbability returns 1-(1-f/s)^n, the chance n runs catch a
// function of length f sampled every s at least once: the formula RunsNeeded
// inverts (§ IV-B).
func captureProbability(n int, f, s time.Duration) float64 {
	if f <= 0 || s <= 0 || n <= 0 {
		return 0
	}
	p := min(float64(f)/float64(s), 1)
	return 1 - math.Pow(1-p, float64(n))
}

// TestPropertyCaptureProbabilityMonotone in n and in f.
func TestPropertyCaptureProbabilityMonotone(t *testing.T) {
	if err := quick.Check(func(fRaw uint16, nRaw uint8) bool {
		s := 10 * time.Millisecond
		f := time.Duration(fRaw%9000+1) * time.Microsecond
		n := int(nRaw%50) + 1
		if captureProbability(n+1, f, s) < captureProbability(n, f, s) {
			return false
		}
		f2 := f + time.Microsecond
		return captureProbability(n, f2, s) >= captureProbability(n, f, s)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAttributionConservesCounters: for any mapping and weights, the
// per-op attributed counters plus the unmapped remainder equal the report's
// totals — attribution redistributes, never invents or loses events.
func TestPropertyAttributionConservesCounters(t *testing.T) {
	ops := []string{"A", "B", "C"}
	syms := []string{"f1", "f2", "f3", "f4", "f5"}
	if err := quick.Check(func(assign [5]uint8, wRaw [3]uint8, cpu [5]uint16) bool {
		m := &Mapping{Ops: map[string][]MappedFunc{}}
		for i, sym := range syms {
			// Each symbol maps to a pseudo-random subset of ops.
			for j, op := range ops {
				if assign[i]&(1<<j) != 0 {
					m.Ops[op] = append(m.Ops[op], MappedFunc{Symbol: sym, Library: "l", Samples: int(assign[i]) + 1})
				}
			}
		}
		weights := map[string]float64{}
		for j, op := range ops {
			weights[op] = float64(wRaw[j]%10) / 10
		}
		report := &hwsim.Report{}
		var total time.Duration
		for i, sym := range syms {
			d := time.Duration(cpu[i]) * time.Microsecond
			total += d
			report.Rows = append(report.Rows, hwsim.FuncRow{
				Symbol: sym, Library: "l",
				Counters: hwsim.Counters{CPUTime: d, Instructions: float64(cpu[i])},
			})
		}
		for _, attribute := range []func(*hwsim.Report, *Mapping, map[string]float64) *Attribution{Attribute, AttributeRefined} {
			att := attribute(report, m, weights)
			var sum time.Duration
			for _, c := range att.PerOp {
				sum += c.CPUTime
			}
			sum += att.Unmapped.CPUTime
			diff := sum - total
			if diff < -time.Microsecond || diff > time.Microsecond {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMappingJSONRoundTrip over randomized mappings.
func TestPropertyMappingJSONRoundTrip(t *testing.T) {
	if err := quick.Check(func(nOps uint8, support, samples uint8) bool {
		m := &Mapping{Arch: "intel", Ops: map[string][]MappedFunc{}, Runs: map[string]int{}}
		for i := 0; i < int(nOps%5)+1; i++ {
			op := string(rune('A' + i))
			m.Ops[op] = []MappedFunc{{Symbol: "s" + op, Library: "l", Support: int(support), Samples: int(samples)}}
			m.Runs[op] = int(support) + 1
		}
		b, err := m.Encode()
		if err != nil {
			return false
		}
		back, err := decodeMapping(b)
		if err != nil || back.Arch != m.Arch || len(back.Ops) != len(m.Ops) {
			return false
		}
		for op, fs := range m.Ops {
			if len(back.Ops[op]) != len(fs) || back.Ops[op][0] != fs[0] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
