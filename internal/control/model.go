// Package control holds the decision rules the tuners share and apply: the
// bottleneck model (classification thresholds and the configuration-selection
// rule, used by the offline tuner in internal/autotune and the trace
// advisor's diagnosis) and the cluster balancer, which turns the router's
// per-node service latencies into weights on the rendezvous ring.
//
// The package contains no sampling and no actuation of its own: drivers
// (internal/cluster for ring weights, internal/autotune for the offline
// search) feed observations in and apply the returned decisions, so every
// decision is a pure function of the observation sequence.
package control

import "time"

// Bottleneck classifies where a pipeline's time is going.
type Bottleneck int

const (
	// BottleneckUnknown: the signals are mixed — neither clearly
	// preprocessing-bound nor clearly consumer-bound.
	BottleneckUnknown Bottleneck = iota
	// BottleneckPreprocessing: the consumer waits on preprocessing (the
	// paper's § V-C2 accelerator starvation). More workers help.
	BottleneckPreprocessing
	// BottleneckAccelerator: the accelerator is saturated; preprocessing
	// keeps up and extra workers only burn CPU.
	BottleneckAccelerator
	// BottleneckBalanced: stalls are eliminated and the accelerator is well
	// utilized — the operating point a tuner steers toward.
	BottleneckBalanced
)

// Classification thresholds, shared by the offline tuner's stopping rules
// and the trace advisor's headline diagnosis. The up/down pair (HighWaitFrac
// vs StallFreeWaitFrac) is the hysteresis band: a pipeline must cross 25%
// long waits to be called preprocessing-bound but drop under 5% to be called
// stall-free, so a signal hovering near either threshold cannot flip the
// diagnosis back and forth.
const (
	// HighWaitFrac: above this fraction of long batch waits the consumer is
	// starving (grow workers).
	HighWaitFrac = 0.25
	// StallFreeWaitFrac: below this fraction stalls are considered
	// eliminated (stop growing).
	StallFreeWaitFrac = 0.05
	// SaturatedGPUUtil: accelerator utilization above this means more
	// preprocessing throughput cannot help.
	SaturatedGPUUtil = 0.9
	// HealthyGPUUtil: minimum utilization for a run to count as balanced
	// rather than merely idle.
	HealthyGPUUtil = 0.5
)

// Sample is one measured operating point: a configuration plus the signals
// it produced. The offline tuner evaluates Samples on the virtual clock.
type Sample struct {
	Workers int
	// Prefetch is the prefetch factor (0 = the DataLoader default of 2).
	Prefetch     int
	E2E          time.Duration
	CPUSeconds   float64
	GPUUtil      float64
	LongWaitFrac float64
}

// Classify maps a sample's signals onto the bottleneck taxonomy.
func Classify(s Sample) Bottleneck {
	if s.GPUUtil > SaturatedGPUUtil {
		return BottleneckAccelerator
	}
	if s.LongWaitFrac > HighWaitFrac {
		return BottleneckPreprocessing
	}
	if s.LongWaitFrac < StallFreeWaitFrac && s.GPUUtil > HealthyGPUUtil {
		return BottleneckBalanced
	}
	return BottleneckUnknown
}

// SelectCheapest picks the configuration to run: the fewest CPU seconds
// among samples within tolerance of the fastest in-budget epoch time
// (cpuBudget <= 0 means unlimited). When nothing fits the budget it falls
// back to the cheapest sample outright. Returns the index into samples, or
// -1 for an empty slice. This is the selection rule the paper's Takeaway 5
// motivates: past the knee, more workers buy little time for a lot of CPU.
func SelectCheapest(samples []Sample, tolerance, cpuBudget float64) int {
	withinBudget := func(s Sample) bool {
		return cpuBudget <= 0 || s.CPUSeconds <= cpuBudget
	}
	var bestE2E time.Duration
	for _, s := range samples {
		if !withinBudget(s) {
			continue
		}
		if bestE2E == 0 || s.E2E < bestE2E {
			bestE2E = s.E2E
		}
	}
	chosen := -1
	for i, s := range samples {
		if !withinBudget(s) {
			continue
		}
		if float64(s.E2E) <= float64(bestE2E)*(1+tolerance) {
			if chosen < 0 || s.CPUSeconds < samples[chosen].CPUSeconds {
				chosen = i
			}
		}
	}
	if chosen < 0 {
		for i, s := range samples {
			if chosen < 0 || s.CPUSeconds < samples[chosen].CPUSeconds {
				chosen = i
			}
		}
	}
	return chosen
}
