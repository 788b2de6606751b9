package control

import (
	"fmt"
	"sync"
)

// Signals is one observation of a serving node's live counters, describing
// a recent window (the driver hands over whatever its trace ring currently
// buffers).
type Signals struct {
	// Counter is the observation key: a monotonically increasing count of
	// completed work (the server uses epochs served). The controller acts at
	// most once per advance, which is what makes it deterministic under the
	// sim clock — decisions are keyed off observed progress, never off wall
	// time.
	Counter int64

	// T2 wait signal (trace.Ring KindBatchWait records currently buffered):
	// how often the consumer-facing main process waited on preprocessing,
	// and what fraction of those waits were long.
	WaitCount    int64
	LongWaitFrac float64

	// QueueFill is the mean prefetch-queue fill fraction (0..1) across live
	// epoch streams. A full queue with no waits means the consumer is the
	// bottleneck; an empty queue with waits means preprocessing is.
	QueueFill float64
}

// Knobs is the controller's view of the actuatable configuration.
type Knobs struct {
	Workers  int
	Prefetch int
}

// Action records one actuation: knob moved from From to To at observation
// Tick because Reason.
type Action struct {
	Tick   int64  `json:"tick"`
	Knob   string `json:"knob"`
	From   int64  `json:"from"`
	To     int64  `json:"to"`
	Reason string `json:"reason"`
}

func (a Action) String() string {
	return fmt.Sprintf("tick %d: %s %d -> %d (%s)", a.Tick, a.Knob, a.From, a.To, a.Reason)
}

// The controller's bounds and pacing. No caller has wanted other values, so
// they are constants; ROADMAP item 10 replaces the rules they pace with a
// model.
const (
	minWorkers, maxWorkers = 1, 16
	maxPrefetch            = 8
	// cooldown is the number of observations a knob rests after moving.
	// Cooldown plus the hysteresis band in the thresholds is what prevents
	// oscillation: a knob cannot reverse course until the effect of its
	// last move has been observed at least cooldown times.
	cooldown = 2
	// shrinkStreak is how many consecutive consumer-bound observations are
	// required before shrinking workers — a single idle window must not
	// throw capacity away.
	shrinkStreak = 2
	// minWaitSamples is the minimum number of windowed wait observations
	// before the wait signal is trusted.
	minWaitSamples = 8
	// consumerBoundFill is the prefetch-queue fill at or above which a
	// stall-free window counts as consumer-bound.
	consumerBoundFill = 0.75
)

// Controller is the node-local control loop. Observe feeds it one Signals
// snapshot; it returns the actions the driver should apply. Safe for
// concurrent use (the server observes from whichever session goroutine
// finishes an epoch).
type Controller struct {
	mu    sync.Mutex
	knobs Knobs
	// lastActed maps knob name to the observation tick it last moved.
	lastActed map[string]int64
	// consumerStreak counts consecutive consumer-bound observations.
	consumerStreak int
	hasPrev        bool
	lastTick       int64
	history        []Action
}

// NewController returns a controller starting from the given knob settings.
func NewController(initial Knobs) *Controller {
	initial.Workers = max(initial.Workers, minWorkers)
	if initial.Prefetch <= 0 {
		initial.Prefetch = 2
	}
	return &Controller{knobs: initial, lastActed: make(map[string]int64)}
}

// Knobs returns the current knob settings.
func (c *Controller) Knobs() Knobs {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.knobs
}

// History returns a copy of every action taken so far.
func (c *Controller) History() []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Action(nil), c.history...)
}

// Observe feeds one signals snapshot and returns the actions to apply. A
// snapshot whose Counter has not advanced past the previous observation is
// ignored — the controller only acts on progress, so repeated scrapes of an
// idle server decide nothing. The first snapshot only sets the baseline.
func (c *Controller) Observe(sig Signals) []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasPrev && sig.Counter <= c.lastTick {
		return nil
	}
	tick := sig.Counter
	hadPrev := c.hasPrev
	c.hasPrev, c.lastTick = true, tick
	if !hadPrev {
		return nil
	}

	var out []Action
	act := func(knob string, from, to int, reason string) {
		a := Action{Tick: tick, Knob: knob, From: int64(from), To: int64(to), Reason: reason}
		c.history = append(c.history, a)
		c.lastActed[knob] = tick
		out = append(out, a)
	}
	ready := func(knob string) bool {
		last, moved := c.lastActed[knob]
		return !moved || tick-last >= cooldown
	}

	// Steer toward BottleneckBalanced.
	waitTrusted := sig.WaitCount >= minWaitSamples
	preprocessingBound := waitTrusted && sig.LongWaitFrac > HighWaitFrac
	consumerBound := waitTrusted && sig.LongWaitFrac < StallFreeWaitFrac && sig.QueueFill >= consumerBoundFill

	if consumerBound {
		c.consumerStreak++
	} else {
		c.consumerStreak = 0
	}

	k := &c.knobs
	switch {
	case preprocessingBound && k.Workers < maxWorkers && ready("workers"):
		k.Workers++
		act("workers", k.Workers-1, k.Workers,
			fmt.Sprintf("preprocessing-bound: %.0f%% long waits", 100*sig.LongWaitFrac))
	case preprocessingBound && k.Workers >= maxWorkers && k.Prefetch < maxPrefetch && ready("prefetch"):
		// Workers are capped; deepen the prefetch window instead so arrival
		// jitter stops surfacing as consumer waits.
		k.Prefetch++
		act("prefetch", k.Prefetch-1, k.Prefetch,
			fmt.Sprintf("preprocessing-bound at worker cap: %.0f%% long waits", 100*sig.LongWaitFrac))
	case c.consumerStreak >= shrinkStreak && k.Workers > minWorkers && ready("workers"):
		k.Workers--
		c.consumerStreak = 0
		act("workers", k.Workers+1, k.Workers,
			fmt.Sprintf("consumer-bound: queue %.0f%% full, %.1f%% long waits", 100*sig.QueueFill, 100*sig.LongWaitFrac))
	}
	return out
}
