package serve

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"lotus/internal/rng"
	"lotus/internal/tensor"
)

// layoutBatches are one batch of each payload kind, sized so their headers
// end at different residues modulo tensorAlign.
func layoutBatches() []*Batch {
	r := rng.New(16, "serve/layout")
	f32 := make([]float32, 5*3*7)
	for i := range f32 {
		f32[i] = float32(r.Float64()*2e6 - 1e6)
	}
	f32[0], f32[1], f32[2] = float32(math.Inf(-1)), float32(math.Copysign(0, -1)), math.MaxFloat32
	u8 := make([]uint8, 2*9)
	for i := range u8 {
		u8[i] = byte(r.Intn(256))
	}
	return []*Batch{
		{Epoch: 1, GlobalID: 7, Indices: []int{4, 9, 1, 0, 8}, Labels: []int{0, -1, 2, 2, 5},
			Dtype: tensor.Float32, Shape: []int{5, 3, 7}, F32: f32},
		{Epoch: 0, GlobalID: 2, Indices: []int{3, 6}, Labels: []int{1, 1},
			Dtype: tensor.Uint8, Shape: []int{2, 9}, U8: u8},
		{Epoch: 3, GlobalID: 0, Indices: []int{1}, Labels: []int{0},
			Dtype: tensor.Float32, Shape: []int{1, 0}, F32: []float32{}},
		{Epoch: 2, GlobalID: 5, Indices: []int{2, 6, 7}, Labels: []int{1, 1, 0},
			Dtype: tensor.Float32, Shape: []int{3, 3, 224, 224}},
	}
}

// TestBatchPayloadLayoutV3 pins the version 3 Batch layout: the tensor bytes
// start at a multiple of tensorAlign from the start of the frame payload
// (wherever AppendBatch was asked to put that payload), everything between
// the nbytes field and the tensor is zero, floats are little-endian IEEE-754,
// a meta batch carries neither padding nor tensor, and a frame with a nonzero
// padding byte — the same tensor, a different digest — is malformed.
func TestBatchPayloadLayoutV3(t *testing.T) {
	for _, m := range layoutBatches() {
		enc := EncodeBatch(m)
		if len(enc) != batchWireSize(m) {
			t.Fatalf("%v: encoded %d bytes, batchWireSize says %d", m.Shape, len(enc), batchWireSize(m))
		}
		// The alignment is relative to the frame, not to dst.
		if shifted := AppendBatch([]byte{1, 2, 3}, m); !bytes.Equal(shifted[3:], enc) {
			t.Fatalf("%v: AppendBatch onto a 3-byte prefix encodes differently", m.Shape)
		}
		hdr := batchHeaderSize(len(m.Indices), len(m.Shape))
		if m.U8 == nil && m.F32 == nil {
			if len(enc) != hdr || enc[hdr-1] != 0 {
				t.Fatalf("meta batch: %d bytes ending in flag %d, want %d ending in 0", len(enc), enc[hdr-1], hdr)
			}
			continue
		}
		off := batchTensorOffset(len(m.Indices), len(m.Shape))
		nbytes := len(m.U8) + 4*len(m.F32)
		if off%tensorAlign != 0 || off < hdr+4 || off >= hdr+4+tensorAlign || len(enc) != off+nbytes {
			t.Fatalf("%v: tensor at %d of %d (header %d, %d tensor bytes)", m.Shape, off, len(enc), hdr, nbytes)
		}
		if enc[hdr-1] != 1 {
			t.Fatalf("%v: materialized flag %d", m.Shape, enc[hdr-1])
		}
		if got := int(enc[hdr])<<24 | int(enc[hdr+1])<<16 | int(enc[hdr+2])<<8 | int(enc[hdr+3]); got != nbytes {
			t.Fatalf("%v: nbytes field %d, want %d", m.Shape, got, nbytes)
		}
		for i := hdr + 4; i < off; i++ {
			if enc[i] != 0 {
				t.Fatalf("%v: padding byte %d is %#x", m.Shape, i, enc[i])
			}
		}
		for i, v := range m.F32 {
			bits := math.Float32bits(v)
			want := []byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)}
			if !bytes.Equal(enc[off+4*i:off+4*i+4], want) {
				t.Fatalf("%v: float %d (%v) encoded % x, want little-endian % x", m.Shape, i, v, enc[off+4*i:off+4*i+4], want)
			}
		}
		if m.U8 != nil && !bytes.Equal(enc[off:], m.U8) {
			t.Fatalf("%v: uint8 tensor bytes differ", m.Shape)
		}
		for i := hdr + 4; i < off; i++ {
			bad := append([]byte(nil), enc...)
			bad[i] = 0x80
			if msg, err := DecodeMessage(bad); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%v: nonzero padding byte %d decoded to %v, %v; want ErrMalformed", m.Shape, i, msg, err)
			}
		}
	}
}

// misaligned returns a copy of b whose first byte sits at an odd address.
func misaligned(b []byte) []byte {
	buf := make([]byte, len(b)+8)
	off := 1
	if uintptr(unsafe.Pointer(&buf[0]))%2 != 0 {
		off = 2
	}
	return append(buf[off:off], b...)
}

// TestPortableAndNativePathsAgree runs the endian-neutral loops — the only
// code a big-endian host executes, and one no little-endian test would
// otherwise reach — against the bulk copy and the view on the same inputs:
// the encodings are equal byte for byte, and a payload decodes to the same
// floats whether it is viewed in place (aligned), converted (misaligned), or
// converted by the portable loop outright.
func TestPortableAndNativePathsAgree(t *testing.T) {
	for _, m := range layoutBatches() {
		if m.F32 == nil {
			continue
		}
		native, portable := appendF32([]byte{9}, m.F32), appendF32Portable([]byte{9}, m.F32)
		if !bytes.Equal(native, portable) {
			t.Fatalf("%v: bulk encode differs from the portable loop", m.Shape)
		}
		raw := native[1:]
		for name, in := range map[string][]byte{"misaligned": misaligned(raw),
			"aligned": append(make([]byte, 0, len(raw)+8), raw...)} {
			want := decodeF32Portable(in)
			got := decodeF32(in)
			if len(got) != len(m.F32) || len(want) != len(m.F32) {
				t.Fatalf("%v %s: decoded %d / %d floats, want %d", m.Shape, name, len(got), len(want), len(m.F32))
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(want[i]) != math.Float32bits(m.F32[i]) {
					t.Fatalf("%v %s: float %d decodes to %v (native) / %v (portable), want %v", m.Shape, name, i, got[i], want[i], m.F32[i])
				}
			}
		}
		if _, ok := f32View(misaligned(raw)); ok && len(raw) > 0 {
			t.Fatalf("%v: f32View accepted a misaligned payload", m.Shape)
		}
	}
	// The same through DecodeMessage: a whole frame at an odd address decodes
	// to the batch the aligned frame decodes to.
	for _, m := range layoutBatches() {
		enc := EncodeBatch(m)
		a, err := DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := DecodeMessage(misaligned(enc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, m) || !reflect.DeepEqual(b, m) {
			t.Fatalf("%v: aligned / misaligned decode changed the batch", m.Shape)
		}
	}
}

// TestDecodedBatchIsAViewCloneIsNot: where the host allows it, the decoded
// tensor is the payload's memory (that is the optimisation), and Clone is how
// a consumer gets out from under it.
func TestDecodedBatchIsAViewCloneIsNot(t *testing.T) {
	for _, m := range layoutBatches()[:2] {
		enc := append(make([]byte, 0, 4096), EncodeBatch(m)...) // 4-byte aligned: a large-enough allocation
		msg, err := DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		view := msg.(*Batch)
		kept := view.Clone()
		off := batchTensorOffset(len(m.Indices), len(m.Shape))
		switch {
		case m.U8 != nil && &view.U8[0] != &enc[off]:
			t.Fatal("decoded U8 is a copy, want a view over the payload")
		case m.F32 != nil && hostLittleEndian && unsafe.Pointer(&view.F32[0]) != unsafe.Pointer(&enc[off]):
			t.Fatal("decoded F32 is a copy on a little-endian host, want a view over the payload")
		}
		for i := range enc {
			enc[i] = 0xAA // the next frame arrives
		}
		if !reflect.DeepEqual(kept, m) {
			t.Fatalf("%v: Clone changed when the payload it was decoded from was overwritten", m.Shape)
		}
		if (m.U8 != nil || hostLittleEndian) && reflect.DeepEqual(view.Tensor(), m.Tensor()) {
			t.Fatalf("%v: the view survived its payload being overwritten: it is not a view", m.Shape)
		}
	}
}
