// Package hwsim simulates the hardware-profiling half of the paper's
// environment: performance-monitoring counters, a user-mode sampling driver
// with a fixed sampling interval (10 ms for the Intel VTune-like profiler,
// 1 ms for the AMD uProf-like one), sample skid that mis-buckets work across
// operation boundaries, background samples from unrelated runtime functions,
// and ITT/AMDProfileControl-style collection gating (Resume/Pause/Detach).
//
// The simulation observes only native-kernel timelines recorded by package
// native — symbols and libraries, never transform names — which reproduces
// exactly the attribution gap LotusMap closes.
package hwsim

import (
	"time"

	"lotus/internal/native"
)

// Counters is the PMU event set the experiments use. Fields mirror the
// metrics Figure 6 reports.
type Counters struct {
	// CPUTime is attributed on-core time.
	CPUTime time.Duration
	// Cycles and Instructions are the raw retirement counters.
	Cycles       float64
	Instructions float64
	// UopsDelivered counts micro-ops the front end delivered to the backend
	// (Fig. 6f: supply drops as data loaders increase).
	UopsDelivered float64
	// FrontEndBoundSlots counts pipeline slots stalled on instruction supply
	// (Fig. 6g: the workload becomes front-end bound under load).
	FrontEndBoundSlots float64
	// BadSpeculationSlots counts slots wasted on mispredicted paths.
	BadSpeculationSlots float64
	// RetiringSlots counts usefully retired slots.
	RetiringSlots float64
	// DRAMBoundCycles counts cycles stalled on loads serviced by local DRAM
	// (Fig. 6h: pressure decreases as the front end starves the backend).
	DRAMBoundCycles float64
	// L1Miss / LLCMiss are cache miss counts.
	L1Miss  float64
	LLCMiss float64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.CPUTime += other.CPUTime
	c.Cycles += other.Cycles
	c.Instructions += other.Instructions
	c.UopsDelivered += other.UopsDelivered
	c.FrontEndBoundSlots += other.FrontEndBoundSlots
	c.BadSpeculationSlots += other.BadSpeculationSlots
	c.RetiringSlots += other.RetiringSlots
	c.DRAMBoundCycles += other.DRAMBoundCycles
	c.L1Miss += other.L1Miss
	c.LLCMiss += other.LLCMiss
}

// Scale returns c multiplied by f.
func (c Counters) Scale(f float64) Counters {
	return Counters{
		CPUTime:             time.Duration(float64(c.CPUTime) * f),
		Cycles:              c.Cycles * f,
		Instructions:        c.Instructions * f,
		UopsDelivered:       c.UopsDelivered * f,
		FrontEndBoundSlots:  c.FrontEndBoundSlots * f,
		BadSpeculationSlots: c.BadSpeculationSlots * f,
		RetiringSlots:       c.RetiringSlots * f,
		DRAMBoundCycles:     c.DRAMBoundCycles * f,
		L1Miss:              c.L1Miss * f,
		LLCMiss:             c.LLCMiss * f,
	}
}

// FrontEndBoundFrac derives the front-end-bound fraction of pipeline slots
// (total slots = 4 per cycle on the modeled 4-wide machine).
func (c Counters) FrontEndBoundFrac() float64 {
	slots := c.Cycles * 4
	if slots == 0 {
		return 0
	}
	return c.FrontEndBoundSlots / slots
}

// TopDown is the level-1 top-down breakdown (fractions of pipeline slots;
// they sum to ~1): the grouping VTune's Microarchitecture Exploration leads
// with.
type TopDown struct {
	Retiring, BadSpeculation, FrontEndBound, BackEndBound float64
}

// TopDown derives the level-1 breakdown from the slot counters. Back-end
// bound is the remainder.
func (c Counters) TopDown() TopDown {
	slots := c.Cycles * 4
	if slots == 0 {
		return TopDown{}
	}
	td := TopDown{
		Retiring:       c.RetiringSlots / slots,
		BadSpeculation: c.BadSpeculationSlots / slots,
		FrontEndBound:  c.FrontEndBoundSlots / slots,
	}
	td.BackEndBound = 1 - td.Retiring - td.BadSpeculation - td.FrontEndBound
	if td.BackEndBound < 0 {
		td.BackEndBound = 0
	}
	return td
}

// DRAMBoundFrac derives the fraction of cycles stalled on local DRAM.
func (c Counters) DRAMBoundFrac() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.DRAMBoundCycles / c.Cycles
}

// Model converts a recorded invocation into PMU counters. The contention
// terms implement the Figure 6 microarchitectural story: as the number of
// concurrently active workers approaches and passes the core count,
// instruction supply becomes the bottleneck (front-end bound rises, µop
// delivery per cycle falls) while per-cycle DRAM pressure falls because the
// starved backend issues fewer loads.
type Model struct {
	CPU native.CPUConfig
	// FEPressure scales how quickly front-end-bound grows with load.
	FEPressure float64
	// DRAMRelief scales how quickly DRAM-bound shrinks with load.
	DRAMRelief float64
	// CacheContention scales cache-miss growth with load.
	CacheContention float64
	// Width is the pipeline issue width in µops/cycle.
	Width float64
}

// DefaultModel returns the calibrated model for the paper's testbed.
func DefaultModel(cpu native.CPUConfig) Model {
	return Model{CPU: cpu, FEPressure: 1.6, DRAMRelief: 0.7, CacheContention: 0.8, Width: 4}
}

// loadFactor maps active workers to the 0..~1.5 pressure scale.
func (m Model) loadFactor(active int) float64 {
	f := float64(active) / float64(m.CPU.Cores)
	if f > 1.5 {
		f = 1.5
	}
	return f
}

// InvocationCounters computes the counters a PMU would have accumulated over
// the full invocation.
func (m Model) InvocationCounters(inv native.Invocation) Counters {
	k := inv.Kernel
	bytes := float64(inv.Bytes)
	load := m.loadFactor(inv.Active)

	cycles := inv.Dur.Seconds() * m.CPU.FreqGHz * 1e9
	instr := k.InstrPerByte * bytes

	fe := k.FrontEndBound * (1 + m.FEPressure*load)
	if fe > 0.95 {
		fe = 0.95
	}
	dram := k.DRAMBound * (1 - m.DRAMRelief*minF(load, 1))
	if dram < 0 {
		dram = 0
	}
	uops := cycles * m.Width * (1 - fe)

	// Level-1 top-down: bad speculation by kernel class (branchy entropy
	// decoders mispredict; streaming copies do not); retiring follows the
	// instruction stream, bounded by what the front end left available.
	slots := cycles * 4
	badSpec := badSpecFrac(k.Class)
	if badSpec > 1-fe {
		badSpec = 1 - fe // a saturated front end leaves no slots to waste
	}
	retiring := 0.0
	if slots > 0 {
		retiring = instr * 1.3 / slots
	}
	if max := 1 - fe - badSpec; retiring > max {
		retiring = max
	}
	if retiring < 0 {
		retiring = 0
	}

	kb := bytes / 1024
	return Counters{
		CPUTime:             inv.Dur,
		Cycles:              cycles,
		Instructions:        instr,
		UopsDelivered:       uops,
		FrontEndBoundSlots:  slots * fe,
		BadSpeculationSlots: slots * badSpec,
		RetiringSlots:       slots * retiring,
		DRAMBoundCycles:     cycles * dram,
		L1Miss:              kb * k.L1MissPerKB * (1 + 0.5*m.CacheContention*load),
		LLCMiss:             kb * k.LLCMissPerKB * (1 + 1.2*m.CacheContention*load),
	}
}

// badSpecFrac assigns the bad-speculation share by bottleneck class.
func badSpecFrac(c native.WorkClass) float64 {
	switch c {
	case native.Compute:
		return 0.08 // branchy entropy/math code
	case native.Mixed:
		return 0.04
	default:
		return 0.015 // streaming memory ops barely branch
	}
}

// RateCounters computes counters accrued over a slice of duration d of the
// invocation, assuming uniform rates — this is how the sampling driver
// credits one sampling interval's worth of events to the sampled function.
func (m Model) RateCounters(inv native.Invocation, d time.Duration) Counters {
	if inv.Dur <= 0 {
		return Counters{}
	}
	whole := m.InvocationCounters(inv)
	return whole.Scale(float64(d) / float64(inv.Dur))
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
