package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile by the exclusive method —
// the one Python's statistics.quantiles(xs, n=4) uses, so the spread this
// harness prints is the spread the acceptance driver computes. ok is false
// below two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped and linearly interpolated
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spreadFrac is (q3 - q1) / |median|: the run-to-run spread as a share of
// the median. 0 when it cannot be computed.
func spreadFrac(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// tail is the highest percentile of a sample that still has at least ten
// observations beyond it, with the value at that percentile.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	N          int     `json:"n"`
}

// tailPercentile applies the "at least ten samples beyond it" rule: with n
// observations the reported value is the (n-10)th order statistic, i.e. the
// percentile 100*(n-10)/n. Below 20 observations no percentile above the
// median qualifies, so the median itself (p50) is returned.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	if n < 20 {
		return tail{Percentile: 50, Value: median(xs), N: n}
	}
	s := sorted(xs)
	k := n - 10 // s[k-1] has exactly ten observations above it
	return tail{Percentile: 100 * float64(k) / float64(n), Value: s[k-1], N: n}
}

// worseBy reports by what share of old the new value is worse, given the
// metric's direction; negative means better. A zero old value with a changed
// new value is an infinite change in whichever direction it went.
func worseBy(better string, old, new float64) float64 {
	d := new - old
	if better == "higher" {
		d = -d
	}
	if old == 0 {
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(old)
}
