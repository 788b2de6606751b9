package serve

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// This file holds the two representations of a float32 tensor payload: the
// portable loops, which define the wire form (IEEE-754 bits, little-endian)
// on any host, and the little-endian fast paths, where the wire form is the
// in-memory form and a []float32 and its wire bytes are one piece of memory.
// It is the package's only use of unsafe; the tests run both on the same
// inputs and require equal results, and `go test -race` (checkptr) guards the
// pointer conversions.

// hostLittleEndian reports whether a float32 in memory already has the wire's
// byte order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// appendF32Portable appends v in wire form one element at a time: the
// definition of the encoding, and the encoder on big-endian hosts.
func appendF32Portable(dst []byte, v []float32) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// decodeF32Portable converts wire bytes to a fresh []float32 one element at a
// time: the decoder on big-endian hosts and for input no float32 may alias.
func decodeF32Portable(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// appendF32 appends v in wire form: one bulk copy where the host's order is
// the wire's.
func appendF32(dst []byte, v []float32) []byte {
	if hostLittleEndian && len(v) > 0 {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))...)
	}
	return appendF32Portable(dst, v)
}

// f32View reinterprets wire bytes as the []float32 they encode, sharing raw's
// memory. ok is false when no such view exists — a big-endian host, or raw
// not 4-byte aligned in memory — and the caller copies instead.
func f32View(raw []byte) (v []float32, ok bool) {
	if !hostLittleEndian || len(raw)%4 != 0 {
		return nil, false
	}
	if len(raw) == 0 {
		return []float32{}, true
	}
	p := unsafe.Pointer(&raw[0])
	if uintptr(p)%unsafe.Alignof(float32(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(p), len(raw)/4), true
}

// decodeF32 returns the floats raw encodes: a view over raw where one
// exists, a converted copy otherwise.
func decodeF32(raw []byte) []float32 {
	if v, ok := f32View(raw); ok {
		return v
	}
	return decodeF32Portable(raw)
}
