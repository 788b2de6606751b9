package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"

	"lotus/internal/imaging"
	"lotus/internal/tensor"
)

// Snapshot codec: the byte form of a cachedSample for the persistent disk
// tier. A snapshot is self-contained — sample metadata plus at most one
// payload — so a process that never ran the prefix can restore the exact
// post-prefix sample from disk. Integrity is the store's job (per-record
// checksums); the decoder only validates structure, and any error makes the
// caller drop the record and recompute.
//
// Layout (big-endian):
//
//	u8  version (1)
//	i64 Index | i64 Label | i64 FileBytes | i64 Seed
//	i64 Width | i64 Height | i64 Depth | i64 Channels | u8 Dtype
//	u8  payload tag: 0 none | 1 image | 2 volume | 3 tensor
//	  image:  u32 W | u32 H | W*H*3 pix bytes
//	  volume: u32 D | u32 H | u32 W | D*H*W f32 bits
//	  tensor: u8 dtype | u32 ndim | ndim x u32 | elems (u8 bytes or f32 bits)
const snapshotVersion = 1

const (
	snapNone   = 0
	snapImage  = 1
	snapVolume = 2
	snapTensor = 3
)

// encodeSnapshot serializes a cached sample. The snapshot borrows nothing:
// the returned slice is freshly allocated and safe to hand to the store.
func encodeSnapshot(cs *cachedSample) []byte {
	m := cs.meta
	payload := 0 // a meta-only snapshot's size is modeled, not bytes to write
	if cs.img != nil || cs.vol != nil || cs.ten != nil {
		payload = int(cs.size)
	}
	buf := make([]byte, 0, 75+payload)
	buf = append(buf, snapshotVersion)
	for _, v := range []int64{int64(m.Index), int64(m.Label), int64(m.FileBytes), m.Seed,
		int64(m.Width), int64(m.Height), int64(m.Depth), int64(m.Channels)} {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	buf = append(buf, byte(m.Dtype))
	switch {
	case cs.img != nil:
		buf = append(buf, snapImage)
		buf = binary.BigEndian.AppendUint32(buf, uint32(cs.img.W))
		buf = binary.BigEndian.AppendUint32(buf, uint32(cs.img.H))
		buf = append(buf, cs.img.Pix...)
	case cs.vol != nil:
		buf = append(buf, snapVolume)
		buf = binary.BigEndian.AppendUint32(buf, uint32(cs.vol.D))
		buf = binary.BigEndian.AppendUint32(buf, uint32(cs.vol.H))
		buf = binary.BigEndian.AppendUint32(buf, uint32(cs.vol.W))
		for _, f := range cs.vol.Vox {
			buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(f))
		}
	case cs.ten != nil:
		buf = append(buf, snapTensor)
		buf = append(buf, byte(cs.ten.Dtype))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(cs.ten.Shape)))
		for _, d := range cs.ten.Shape {
			buf = binary.BigEndian.AppendUint32(buf, uint32(d))
		}
		if cs.ten.Dtype == tensor.Uint8 {
			buf = append(buf, cs.ten.U8...)
		} else {
			for _, f := range cs.ten.F32 {
				buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(f))
			}
		}
	default:
		buf = append(buf, snapNone)
	}
	return buf
}

// snapDecoder is a bounds-checked cursor; any overrun flags err instead of
// panicking, since the input crossed a disk.
type snapDecoder struct {
	b   []byte
	p   int
	err error
}

func (d *snapDecoder) u8() byte {
	if d.err != nil || d.p+1 > len(d.b) {
		d.err = fmt.Errorf("pipeline: snapshot truncated at %d", d.p)
		return 0
	}
	v := d.b[d.p]
	d.p++
	return v
}

func (d *snapDecoder) u32() uint32 {
	if d.err != nil || d.p+4 > len(d.b) {
		d.err = fmt.Errorf("pipeline: snapshot truncated at %d", d.p)
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.p:])
	d.p += 4
	return v
}

func (d *snapDecoder) i64() int64 {
	if d.err != nil || d.p+8 > len(d.b) {
		d.err = fmt.Errorf("pipeline: snapshot truncated at %d", d.p)
		return 0
	}
	v := int64(binary.BigEndian.Uint64(d.b[d.p:]))
	d.p += 8
	return v
}

func (d *snapDecoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.p+n > len(d.b) {
		d.err = fmt.Errorf("pipeline: snapshot truncated at %d", d.p)
		return nil
	}
	v := d.b[d.p : d.p+n]
	d.p += n
	return v
}

// maxSnapshotDim bounds decoded geometry so a corrupt record cannot demand
// a giant allocation before its content is even looked at.
const maxSnapshotDim = 1 << 16

func snapDim(d *snapDecoder) int {
	v := d.u32()
	if d.err == nil && (v == 0 || v > maxSnapshotDim) {
		d.err = fmt.Errorf("pipeline: snapshot dimension %d out of range", v)
	}
	return int(v)
}

// decodeSnapshot reconstructs a cached sample from its byte form. Payloads
// land in pooled buffers, exactly as snapshotSample would have produced
// them; the returned snapshot holds one reference, the caller's.
func decodeSnapshot(b []byte) (*cachedSample, error) {
	d := &snapDecoder{b: b}
	if v := d.u8(); d.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("pipeline: snapshot version %d unsupported", v)
	}
	var m Sample
	m.Index = int(d.i64())
	m.Label = int(d.i64())
	m.FileBytes = int(d.i64())
	m.Seed = d.i64()
	m.Width = int(d.i64())
	m.Height = int(d.i64())
	m.Depth = int(d.i64())
	m.Channels = int(d.i64())
	m.Dtype = tensor.DType(d.u8())
	tag := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	if m.Dtype != tensor.Uint8 && m.Dtype != tensor.Float32 {
		return nil, fmt.Errorf("pipeline: snapshot sample dtype %d unsupported", m.Dtype)
	}
	cs := &cachedSample{meta: m}
	fail := func(err error) (*cachedSample, error) {
		cs.img.Release()
		cs.vol.Release()
		return nil, err
	}
	switch tag {
	case snapNone:
		if cs.size = int64(m.RawBytes()); cs.size < 0 {
			return nil, fmt.Errorf("pipeline: snapshot models a negative size (%d bytes)", cs.size)
		}
	case snapImage:
		w, h := snapDim(d), snapDim(d)
		if d.err != nil {
			return nil, d.err
		}
		pix := d.bytes(w * h * 3)
		if d.err != nil {
			return nil, d.err
		}
		cs.img = imaging.GetImage(w, h)
		copy(cs.img.Pix, pix)
		cs.size = int64(len(cs.img.Pix))
	case snapVolume:
		dd, h, w := snapDim(d), snapDim(d), snapDim(d)
		if d.err != nil {
			return nil, d.err
		}
		raw := d.bytes(dd * h * w * 4)
		if d.err != nil {
			return nil, d.err
		}
		cs.vol = imaging.GetVolume(dd, h, w)
		for i := range cs.vol.Vox {
			cs.vol.Vox[i] = math.Float32frombits(binary.BigEndian.Uint32(raw[i*4:]))
		}
		cs.size = int64(len(cs.vol.Vox)) * 4
	case snapTensor:
		dt := tensor.DType(d.u8())
		ndim := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if ndim > 8 {
			return nil, fmt.Errorf("pipeline: snapshot tensor rank %d out of range", ndim)
		}
		// Every element costs at least one input byte, so an element count
		// past the input's length is damage — caught here, before the
		// product can overflow or size an allocation.
		shape := make([]int, ndim)
		n := 1
		for i := range shape {
			shape[i] = snapDim(d)
			if d.err == nil && n > len(b)/shape[i] {
				d.err = fmt.Errorf("pipeline: snapshot tensor shape exceeds its %d-byte record", len(b))
			}
			n *= shape[i]
		}
		if d.err != nil {
			return nil, d.err
		}
		t := tensor.Meta(dt, shape...)
		switch dt {
		case tensor.Uint8:
			raw := d.bytes(n)
			if d.err != nil {
				return fail(d.err)
			}
			t.U8 = append([]uint8(nil), raw...)
		case tensor.Float32:
			raw := d.bytes(n * 4)
			if d.err != nil {
				return fail(d.err)
			}
			t.F32 = make([]float32, n)
			for i := range t.F32 {
				t.F32[i] = math.Float32frombits(binary.BigEndian.Uint32(raw[i*4:]))
			}
		default:
			return fail(fmt.Errorf("pipeline: snapshot tensor dtype %d unsupported", dt))
		}
		cs.ten = t
		cs.size = int64(t.Bytes())
	default:
		return nil, fmt.Errorf("pipeline: snapshot payload tag %d unsupported", tag)
	}
	if d.p != len(b) {
		return fail(fmt.Errorf("pipeline: snapshot has %d trailing bytes", len(b)-d.p))
	}
	cs.refs.Store(1)
	return cs, nil
}
