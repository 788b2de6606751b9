package tensor

import (
	"math"
	"testing"
)

func TestNumElems(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{3, 224, 224}, 3 * 224 * 224},
		{[]int{0, 5}, 0},
	}
	for _, c := range cases {
		if got := NumElems(c.shape); got != c.want {
			t.Errorf("NumElems(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestZerosAndMeta(t *testing.T) {
	z := Zeros(Uint8, 2, 3)
	if z.IsMeta() || len(z.U8) != 6 {
		t.Fatalf("Zeros produced %v", z)
	}
	m := Meta(Float32, 2, 3)
	if !m.IsMeta() || m.Bytes() != 24 {
		t.Fatalf("Meta produced %v with Bytes=%d", m, m.Bytes())
	}
}

func TestToUint8Clamps(t *testing.T) {
	f := FromF32([]float32{-4, 0.4, 128, 300}, 4)
	u := f.ToUint8()
	want := []uint8{0, 0, 128, 255}
	for i := range want {
		if u.U8[i] != want[i] {
			t.Fatalf("U8[%d] = %d, want %d", i, u.U8[i], want[i])
		}
	}
}

func TestNormalizePerChannel(t *testing.T) {
	// Shape [2, 2]: channel 0 = {2, 4}, channel 1 = {10, 20}.
	f := FromF32([]float32{2, 4, 10, 20}, 2, 2)
	f.Normalize([]float32{3, 15}, []float32{1, 5})
	want := []float32{-1, 1, -1, 1}
	for i := range want {
		if math.Abs(float64(f.F32[i]-want[i])) > 1e-6 {
			t.Fatalf("F32[%d] = %v, want %v", i, f.F32[i], want[i])
		}
	}
}

func TestNormalizeRejectsWrongDtype(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on uint8 Normalize")
		}
	}()
	Zeros(Uint8, 1, 2).Normalize([]float32{0}, []float32{1})
}

func TestStackCollate(t *testing.T) {
	a := FromU8([]uint8{1, 2}, 2)
	b := FromU8([]uint8{3, 4}, 2)
	s := Stack([]*Tensor{a, b})
	if s.Shape[0] != 2 || s.Shape[1] != 2 {
		t.Fatalf("shape = %v", s.Shape)
	}
	want := []uint8{1, 2, 3, 4}
	for i := range want {
		if s.U8[i] != want[i] {
			t.Fatalf("U8 = %v, want %v", s.U8, want)
		}
	}
}

func TestStackMeta(t *testing.T) {
	s := Stack([]*Tensor{Meta(Float32, 3, 8, 8), Meta(Float32, 3, 8, 8)})
	if !s.IsMeta() {
		t.Fatal("stack of meta tensors should be meta")
	}
	if s.Bytes() != 2*3*8*8*4 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

func TestStackRejectsMismatchedShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Stack([]*Tensor{Meta(Uint8, 2), Meta(Uint8, 3)})
}

// TestStackIntoWritesTheCallersBuffer: the destination the allocator hands
// out is the tensor returned, filled in place and equal to Stack's; a nil
// allocator result falls back to allocating; meta inputs never ask; a
// destination of the wrong geometry panics before anything is written.
func TestStackIntoWritesTheCallersBuffer(t *testing.T) {
	ts := []*Tensor{FromF32([]float32{1, 2, 3}, 3), FromF32([]float32{4, 5, 6}, 3)}
	buf := make([]float32, 6)
	out := StackInto(func(dtype DType, shape []int) *Tensor {
		if dtype != Float32 || !sameShape(shape, []int{2, 3}) {
			t.Fatalf("allocator asked for %s %v, want float32 [2 3]", dtype, shape)
		}
		return FromF32(buf, shape...)
	}, ts)
	if &out.F32[0] != &buf[0] {
		t.Fatal("StackInto did not write into the destination it was given")
	}
	for i, v := range Stack(ts).F32 {
		if buf[i] != v {
			t.Fatalf("StackInto wrote %v, Stack returns %v", buf, Stack(ts).F32)
		}
	}
	if got := StackInto(func(DType, []int) *Tensor { return nil }, ts); got.F32[5] != 6 {
		t.Fatalf("nil destination: got %v", got.F32)
	}
	StackInto(func(DType, []int) *Tensor {
		t.Fatal("allocator called for meta inputs")
		return nil
	}, []*Tensor{Meta(Uint8, 2), Meta(Uint8, 2)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a destination of the wrong shape")
		}
	}()
	StackInto(func(DType, []int) *Tensor { return Zeros(Float32, 3, 2) }, ts)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromF32([]float32{1, 2}, 2)
	b := a.Clone()
	b.F32[0] = 99
	if a.F32[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// Mean returns the arithmetic mean of all elements (0 for meta tensors).
func (t *Tensor) Mean() float64 {
	n := t.Len()
	if n == 0 || t.IsMeta() {
		return 0
	}
	var sum float64
	switch t.Dtype {
	case Uint8:
		for _, v := range t.U8 {
			sum += float64(v)
		}
	case Float32:
		for _, v := range t.F32 {
			sum += float64(v)
		}
	}
	return sum / float64(n)
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	n := t.Len()
	if n == 0 || t.IsMeta() {
		return 0
	}
	m := t.Mean()
	var sq float64
	switch t.Dtype {
	case Uint8:
		for _, v := range t.U8 {
			d := float64(v) - m
			sq += d * d
		}
	case Float32:
		for _, v := range t.F32 {
			d := float64(v) - m
			sq += d * d
		}
	}
	return math.Sqrt(sq / float64(n))
}

func TestMeanStd(t *testing.T) {
	f := FromF32([]float32{1, 2, 3, 4}, 4)
	if m := f.Mean(); math.Abs(m-2.5) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
	if s := f.Std(); math.Abs(s-math.Sqrt(1.25)) > 1e-9 {
		t.Fatalf("Std = %v", s)
	}
}

func TestNormalizeZeroMeanUnitVariance(t *testing.T) {
	// Normalizing by the tensor's own moments should yield mean~0 std~1 —
	// the property the Normalize preprocessing step exists to provide.
	raw := make([]float32, 1000)
	for i := range raw {
		raw[i] = float32(i%17) * 3.5
	}
	f := FromF32(raw, 1, 1000)
	f.Normalize([]float32{float32(f.Mean())}, []float32{float32(f.Std())})
	if m := f.Mean(); math.Abs(m) > 1e-3 {
		t.Fatalf("post-normalize mean = %v", m)
	}
	if s := f.Std(); math.Abs(s-1) > 1e-3 {
		t.Fatalf("post-normalize std = %v", s)
	}
}
