package data_test

import (
	"bytes"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/imaging"
	"lotus/internal/pipeline"
	"lotus/internal/tensor"
)

// TestDamagedCorpusBlobUnderCropPushdown: a stored blob that no longer
// matches its checksum — one flipped byte, then a truncated file — never
// reaches the decoder. The Loader falls back to the inline render, and with
// the crop→decode rewrite on, the window it decodes of *that* is the window
// of the file as rendered: the pixels every touch produced before there was a
// corpus or a windowed decode (full decode of the render, crop, resize).
func TestDamagedCorpusBlobUnderCropPushdown(t *testing.T) {
	const n, dim, victim = 6, 64, 3
	ds := data.NewImageDataset(data.ImageNetConfig(n, 5))
	loader, crop := &pipeline.Loader{IO: data.IOModel{}}, &pipeline.RandomResizedCrop{Size: 32}
	chain := pipeline.NewCompose(loader, crop)
	if got := chain.Rewrites(pipeline.RealData, false); got != "crop→decode (the plan does not end in ToTensor, Normalize)" {
		t.Fatalf("the chain's rewrites are %q", got)
	}
	folder := pipeline.NewImageFolder(ds, chain)
	clock.NewReal().Run("damage-test", func(p clock.Proc) {
		// pass reports whether every sample matched.
		pass := func(epoch int) bool {
			ctx := &pipeline.Ctx{Proc: p, Mode: pipeline.RealData, Seed: 1, Epoch: epoch, MaterializeDim: dim}
			for i := 0; i < n; i++ {
				got := folder.GetItem(ctx, 0, 0, i).Image
				// As written, on the file as rendered.
				full, err := imaging.DecodeSJPG(ds.Record(i).Materialize(dim))
				if err != nil {
					t.Error(err)
					return false
				}
				rec := ds.Record(i)
				want := crop.Apply(ctx, pipeline.Sample{Index: i, Seed: rec.Seed, Width: full.W, Height: full.H,
					Channels: 3, Dtype: tensor.Uint8, Image: full}).Image
				if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
					t.Errorf("epoch %d sample %d: pixels differ from decode + crop + resize of the rendered file", epoch, i)
					return false
				}
				got.Release()
				want.Release()
			}
			return true
		}
		if !pass(0) { // renders and stores every blob
			return
		}
		if err := ds.DamageStoredBlob(victim, dim, false); err != nil {
			t.Error(err)
			return
		}
		if !pass(1) {
			return
		}
		if st := ds.CorpusStats(); st.ReadErrors != 1 || st.Rendered != n+1 || st.Reads != n-1 {
			t.Errorf("after a flipped byte: %+v, want read_errors 1, rendered %d (the blob replaced), reads %d", st, n+1, n-1)
			return
		}
		if err := ds.DamageStoredBlob(victim, dim, true); err != nil { // the replacement is the file's last blob
			t.Error(err)
			return
		}
		if !pass(2) {
			return
		}
		if st := ds.CorpusStats(); st.ReadErrors != 2 || st.Disabled {
			t.Errorf("after a truncation: %+v, want read_errors 2, still enabled", st)
		}
	})
	if t.Failed() {
		return
	}
	if st := loader.DecodeStats(); st.Windowed != 3*n || st.Full != 0 {
		t.Fatalf("three rewritten passes over %d samples: %+v", n, st)
	}
}
