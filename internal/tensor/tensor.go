// Package tensor implements the minimal dense-tensor substrate the
// preprocessing pipelines operate on: uint8 and float32 tensors with
// arbitrary rank, plus the operations the MLPerf pipelines use (cast,
// normalize, flip, stack/collate).
//
// Data buffers are optional: in the virtual-time characterization runs the
// pipeline moves shape-only tensors (Meta tensors) and models the kernel cost
// from element counts, while the real-time examples carry actual data. All
// operations handle both forms.
package tensor

import (
	"fmt"
)

// DType enumerates the element types used by the pipelines.
type DType int

const (
	Uint8 DType = iota
	Float32
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case Uint8:
		return 1
	case Float32:
		return 4
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
}

func (d DType) String() string {
	switch d {
	case Uint8:
		return "uint8"
	case Float32:
		return "float32"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Tensor is a dense n-dimensional array. Exactly one of U8/F32 is non-nil
// for a materialized tensor; both are nil for a meta (shape-only) tensor.
type Tensor struct {
	Shape []int
	Dtype DType
	U8    []uint8
	F32   []float32
}

// NumElems returns the product of the shape dimensions.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Meta creates a shape-only tensor carrying no data.
func Meta(dtype DType, shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Dtype: dtype}
}

// Zeros creates a materialized tensor filled with zeros.
func Zeros(dtype DType, shape ...int) *Tensor {
	t := Meta(dtype, shape...)
	n := NumElems(shape)
	switch dtype {
	case Uint8:
		t.U8 = make([]uint8, n)
	case Float32:
		t.F32 = make([]float32, n)
	}
	return t
}

// FromU8 wraps data (not copied) as a tensor of the given shape.
func FromU8(data []uint8, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	t := Meta(Uint8, shape...)
	t.U8 = data
	return t
}

// FromF32 wraps data (not copied) as a tensor of the given shape.
func FromF32(data []float32, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	t := Meta(Float32, shape...)
	t.F32 = data
	return t
}

// IsMeta reports whether the tensor carries no data buffer.
func (t *Tensor) IsMeta() bool { return t.U8 == nil && t.F32 == nil }

// Len returns the number of elements.
func (t *Tensor) Len() int { return NumElems(t.Shape) }

// Bytes returns the buffer size in bytes the tensor represents (for meta
// tensors, the size it would occupy if materialized).
func (t *Tensor) Bytes() int { return t.Len() * t.Dtype.Size() }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := Meta(t.Dtype, t.Shape...)
	if t.U8 != nil {
		out.U8 = append([]uint8(nil), t.U8...)
	}
	if t.F32 != nil {
		out.F32 = append([]float32(nil), t.F32...)
	}
	return out
}

func (t *Tensor) String() string {
	kind := "data"
	if t.IsMeta() {
		kind = "meta"
	}
	return fmt.Sprintf("Tensor(%s, %v, %s)", t.Dtype, t.Shape, kind)
}

// ToUint8 casts float32 values to uint8 with clamping (the IS pipeline's
// Cast op). Values are assumed to already be in display range.
func (t *Tensor) ToUint8() *Tensor {
	if t.Dtype == Uint8 {
		return t.Clone()
	}
	out := Meta(Uint8, t.Shape...)
	if t.F32 != nil {
		out.U8 = make([]uint8, len(t.F32))
		for i, v := range t.F32 {
			switch {
			case v <= 0:
				out.U8[i] = 0
			case v >= 255:
				out.U8[i] = 255
			default:
				out.U8[i] = uint8(v)
			}
		}
	}
	return out
}

// Normalize applies (x - mean[c]) / std[c] per leading-dimension channel,
// in place, and returns the receiver. The tensor must be float32 with shape
// [C, ...]; len(mean) and len(std) must equal C.
func (t *Tensor) Normalize(mean, std []float32) *Tensor {
	if t.Dtype != Float32 {
		panic("tensor: Normalize requires a float32 tensor")
	}
	c := t.Shape[0]
	if len(mean) != c || len(std) != c {
		panic(fmt.Sprintf("tensor: Normalize mean/std length %d/%d != channels %d", len(mean), len(std), c))
	}
	if t.F32 == nil {
		return t
	}
	per := t.Len() / c
	for ch := 0; ch < c; ch++ {
		m, s := mean[ch], std[ch]
		seg := t.F32[ch*per : (ch+1)*per]
		inv := float32(1) / s
		for i := range seg {
			seg[i] = (seg[i] - m) * inv
		}
	}
	return t
}

// Stack collates k same-shaped tensors into one tensor of shape [k, ...].
// This is the DataLoader's default collate function. Meta inputs produce a
// meta output.
func Stack(ts []*Tensor) *Tensor {
	return StackInto(nil, ts)
}

// StackInto is Stack with the output buffer chosen by the caller: alloc is
// asked once, with the output dtype and shape, for a materialized tensor of
// exactly that geometry, and the inputs are copied straight into it — which
// is how the serving layer collates into a wire frame instead of into a
// tensor it would then copy. A nil alloc, or one that returns nil, means a
// fresh Zeros tensor. Meta inputs produce a meta output and never call alloc.
func StackInto(alloc func(dtype DType, shape []int) *Tensor, ts []*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Stack of zero tensors")
	}
	first := ts[0]
	for _, t := range ts[1:] {
		if t.Dtype != first.Dtype || !sameShape(t.Shape, first.Shape) {
			panic(fmt.Sprintf("tensor: Stack shape mismatch: %v vs %v", t, first))
		}
	}
	outShape := append([]int{len(ts)}, first.Shape...)
	if first.IsMeta() {
		return Meta(first.Dtype, outShape...)
	}
	out := NewStacked(alloc, first.Dtype, outShape)
	n := first.Len()
	switch first.Dtype {
	case Uint8:
		for i, t := range ts {
			copy(out.U8[i*n:], t.U8)
		}
	case Float32:
		for i, t := range ts {
			copy(out.F32[i*n:], t.F32)
		}
	}
	return out
}

// NewStacked returns the materialized tensor a stack of geometry shape is
// written into: alloc's, held to StackInto's contract, or fresh zeros when
// alloc is nil or declines. It is StackInto's allocation step on its own, for
// a caller that fills the stack itself.
func NewStacked(alloc func(dtype DType, shape []int) *Tensor, dtype DType, shape []int) *Tensor {
	var out *Tensor
	if alloc != nil {
		out = alloc(dtype, shape)
	}
	switch {
	case out == nil:
		out = Zeros(dtype, shape...)
	case out.IsMeta() || out.Dtype != dtype || !sameShape(out.Shape, shape):
		panic(fmt.Sprintf("tensor: StackInto destination %v does not fit %v %v", out, dtype, shape))
	}
	return out
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
