package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamsAreDeterministic(t *testing.T) {
	a := New(42, "images")
	b := New(42, "images")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
}

func TestStreamsAreIndependentByName(t *testing.T) {
	a := New(42, "images")
	b := New(42, "io")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names produced %d/100 identical draws", same)
	}
}

func TestLogNormalMatchesMoments(t *testing.T) {
	// The paper's ImageNet distribution: mean 111 KB, stddev 133 KB. Check
	// sample moments land near the parameterization.
	s := New(1, "lognormal")
	const n = 200000
	mean, stddev := 111e3, 133e3
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.LogNormal(mean, stddev)
		if v <= 0 {
			t.Fatalf("lognormal produced non-positive value %v", v)
		}
		sum += v
		sumsq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumsq/n - m*m)
	if math.Abs(m-mean)/mean > 0.05 {
		t.Fatalf("sample mean %.0f, want ~%.0f", m, mean)
	}
	if math.Abs(sd-stddev)/stddev > 0.10 {
		t.Fatalf("sample stddev %.0f, want ~%.0f", sd, stddev)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(2, "normal")
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumsq/n - m*m)
	if math.Abs(m-5) > 0.05 {
		t.Fatalf("mean %.3f, want ~5", m)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Fatalf("stddev %.3f, want ~2", sd)
	}
}

func TestUniformBounds(t *testing.T) {
	s := New(3, "uniform")
	if err := quick.Check(func(rawLo, rawSpan float64) bool {
		lo := math.Mod(math.Abs(rawLo), 1000)
		span := math.Mod(math.Abs(rawSpan), 1000) + 0.001
		v := s.Uniform(lo, lo+span)
		return v >= lo && v < lo+span
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(4, "intn")
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5, "perm")
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(6, "bool")
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.3f", frac)
	}
}
