// Package rng provides deterministic, named random-number streams for the
// simulator. Every stochastic component (dataset sizes, transform
// randomness, sampling skid, I/O jitter) draws from its own stream derived
// from a root seed plus a name, so adding randomness to one component never
// perturbs another — a property the experiment harness relies on to keep
// paper figures reproducible run to run.
package rng

import (
	"math"
	"math/rand"
)

// Stream is a deterministic random stream. It wraps math/rand with the
// distribution helpers the synthetic workloads need.
type Stream struct {
	r *rand.Rand
}

// nameHash is FNV-64a over the component name, inlined so that deriving a
// stream never allocates a hasher. It matches hash/fnv's Sum64 exactly,
// which keeps every historical stream sequence (and therefore every golden
// experiment output) byte-identical.
func nameHash(name string) int64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h)
}

// New derives a stream from a root seed and a component name.
func New(seed int64, name string) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed ^ nameHash(name)))}
}

// NewFromSeed returns a stream seeded directly.
func NewFromSeed(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// Derive creates a child stream named relative to this one. The child's
// sequence is independent of how much the parent has been consumed.
func (s *Stream) Derive(name string) *Stream {
	return New(s.r.Int63(), name)
}

// Reseed resets the stream in place to exactly the state New(seed, name)
// would create, without allocating. Hot paths (one stream per sample per
// op) keep a scratch Stream and reseed it instead of building a fresh
// generator — math/rand's source is ~5 KB, which used to dominate the
// simulated epoch's heap churn.
func (s *Stream) Reseed(seed int64, name string) {
	s.r.Seed(seed ^ nameHash(name))
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Normal returns a normally distributed value.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// LogNormal returns a log-normally distributed value parameterized directly
// by the desired mean and standard deviation of the *resulting* distribution
// (not of the underlying normal). This matches how the paper reports the
// ImageNet file-size distribution: mean 111 KB, stddev 133 KB.
func (s *Stream) LogNormal(mean, stddev float64) float64 {
	if mean <= 0 {
		return 0
	}
	v := stddev * stddev
	mu := math.Log(mean * mean / math.Sqrt(v+mean*mean))
	sigma := math.Sqrt(math.Log(1 + v/(mean*mean)))
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Exponential returns an exponentially distributed value with the given mean.
func (s *Stream) Exponential(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
