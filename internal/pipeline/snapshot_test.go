package pipeline

import (
	"bytes"
	"testing"

	"lotus/internal/imaging"
	"lotus/internal/tensor"
)

func snapMeta(idx int) Sample {
	return Sample{Index: idx, Label: idx % 7, FileBytes: 1000 + idx, Seed: int64(42 + idx),
		Width: 8, Height: 6, Channels: 3, Dtype: tensor.Uint8}
}

func roundTrip(t *testing.T, cs *cachedSample) *cachedSample {
	t.Helper()
	got, err := decodeSnapshot(encodeSnapshot(cs))
	if err != nil {
		t.Fatal(err)
	}
	if got.meta != cs.meta {
		t.Fatalf("meta mismatch: %+v vs %+v", got.meta, cs.meta)
	}
	if got.size != cs.size {
		t.Fatalf("size mismatch: %d vs %d", got.size, cs.size)
	}
	return got
}

func imageSample() Sample {
	s := snapMeta(3)
	s.Image = imaging.NewImage(8, 6)
	for i := range s.Image.Pix {
		s.Image.Pix[i] = byte(i * 3)
	}
	return s
}

func volumeSample() Sample {
	s := snapMeta(4)
	s.Dtype = tensor.Float32
	s.Depth, s.Channels = 3, 1
	s.Volume = &imaging.Volume{D: 3, H: 6, W: 8, Vox: make([]float32, 3*6*8)}
	for i := range s.Volume.Vox {
		s.Volume.Vox[i] = float32(i) * 0.25
	}
	return s
}

func tensorSample(dt tensor.DType) Sample {
	s := snapMeta(5)
	s.Dtype = dt
	s.Tensor = tensor.Zeros(dt, 2, 3, 4)
	for i := 0; i < s.Tensor.Len(); i++ {
		if dt == tensor.Uint8 {
			s.Tensor.U8[i] = byte(i)
		} else {
			s.Tensor.F32[i] = float32(i) * 1.5
		}
	}
	return s
}

func TestSnapshotRoundTripImage(t *testing.T) {
	s := imageSample()
	cs := snapshotSample(s)
	got := roundTrip(t, cs)
	if got.img == nil || !bytes.Equal(got.img.Pix, s.Image.Pix) {
		t.Fatal("image pixels did not survive the round trip")
	}
	got.Release()
	cs.Release()
}

func TestSnapshotRoundTripVolume(t *testing.T) {
	s := volumeSample()
	cs := snapshotSample(s)
	got := roundTrip(t, cs)
	if got.vol == nil || got.vol.D != 3 || got.vol.H != 6 || got.vol.W != 8 {
		t.Fatal("volume geometry lost")
	}
	for i, v := range got.vol.Vox {
		if v != s.Volume.Vox[i] {
			t.Fatalf("vox %d: %v != %v", i, v, s.Volume.Vox[i])
		}
	}
	got.Release()
	cs.Release()
}

func TestSnapshotRoundTripTensor(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.Uint8, tensor.Float32} {
		s := tensorSample(dt)
		tt := s.Tensor
		cs := snapshotSample(s)
		got := roundTrip(t, cs)
		if got.ten == nil || got.ten.Dtype != dt || got.ten.Len() != tt.Len() {
			t.Fatalf("tensor shape/dtype lost for %v", dt)
		}
		if dt == tensor.Uint8 && !bytes.Equal(got.ten.U8, tt.U8) {
			t.Fatal("u8 tensor data lost")
		}
		if dt == tensor.Float32 {
			for i := range tt.F32 {
				if got.ten.F32[i] != tt.F32[i] {
					t.Fatalf("f32 tensor elem %d lost", i)
				}
			}
		}
		got.Release()
		cs.Release()
	}
}

func TestSnapshotRoundTripSimulatedMeta(t *testing.T) {
	// Simulated-mode samples carry no payload but keep their modeled size.
	s := snapMeta(6)
	cs := snapshotSample(s)
	got := roundTrip(t, cs)
	if got.img != nil || got.vol != nil || got.ten != nil {
		t.Fatal("meta-only snapshot grew a payload")
	}
	if got.size != int64(s.RawBytes()) {
		t.Fatalf("modeled size lost: %d != %d", got.size, s.RawBytes())
	}
	got.Release()
	cs.Release()
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	s := snapMeta(7)
	s.Image = imaging.NewImage(8, 6)
	cs := snapshotSample(s)
	defer cs.Release()
	enc := encodeSnapshot(cs)
	cases := map[string][]byte{
		"empty":      {},
		"badVersion": append([]byte{99}, enc[1:]...),
		"truncMeta":  enc[:20],
		"truncPix":   enc[:len(enc)-5],
		"trailing":   append(append([]byte(nil), enc...), 0xFF),
		// Layout: [0] version, [1:65) meta i64s, [65] dtype, [66] tag,
		// [67:71) image width.
		"badTag":  func() []byte { b := append([]byte(nil), enc...); b[66] = 77; return b }(),
		"zeroDim": func() []byte { b := append([]byte(nil), enc...); copy(b[67:71], []byte{0, 0, 0, 0}); return b }(),
		"hugeDim": func() []byte {
			b := append([]byte(nil), enc...)
			copy(b[67:71], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := decodeSnapshot(data); err == nil {
			t.Fatalf("%s: decode accepted damaged snapshot", name)
		}
	}
}

// FuzzDecodeSnapshot drives arbitrary bytes through the decoder the disk
// tier feeds. It must never panic; whatever it accepts must re-encode to the
// very bytes it was given (the codec is canonical, so a record read back from
// disk is the record that was written), and a payload is never larger than
// the input that carried it — geometry fields cannot demand an allocation
// the record does not pay for.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range []Sample{imageSample(), volumeSample(),
		tensorSample(tensor.Uint8), tensorSample(tensor.Float32), snapMeta(6)} {
		cs := snapshotSample(s)
		f.Add(encodeSnapshot(cs))
		cs.Release()
	}
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := decodeSnapshot(data) // must not panic
		if err != nil {
			return
		}
		defer cs.Release()
		if (cs.img != nil || cs.vol != nil || cs.ten != nil) && cs.size > int64(len(data)) {
			t.Fatalf("decoded a %d-byte payload out of %d input bytes", cs.size, len(data))
		}
		if enc := encodeSnapshot(cs); !bytes.Equal(enc, data) {
			t.Fatalf("accepted snapshot does not re-encode to its input:\n in  %x\n out %x", data, enc)
		}
	})
}
