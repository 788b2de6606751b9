package pipeline

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/imaging"
	"lotus/internal/tensor"
)

// onRealCtx runs fn on a wall-clock proc with a worker-like real-mode Ctx.
func onRealCtx(dim int, fn func(ctx *Ctx)) {
	clock.NewReal().Run("corpus-test", func(p clock.Proc) {
		fn(&Ctx{Proc: p, Mode: RealData, Seed: 1, MaterializeDim: dim})
	})
}

// loaderFolder wraps ds with a chain of just l, so GetItem is l.Apply on the
// sample the folder builds for record i. It does not touch l.Data.
func loaderFolder(ds *data.ImageDataset, l *Loader) *ImageFolder {
	return &ImageFolder{Data: ds, Transform: NewCompose(l)}
}

// recordSample is the sample ImageFolder.GetItem builds for record i.
func recordSample(ds *data.ImageDataset, i int) Sample {
	rec := ds.Record(i)
	return Sample{Index: i, Label: rec.Label, FileBytes: rec.FileBytes, Seed: rec.Seed,
		Width: rec.Width, Height: rec.Height, Channels: 3, Dtype: tensor.Uint8}
}

// TestLoaderScratchReuseIsSafe: the decoded image must keep nothing of the
// blob it was decoded from, because the worker's scratch buffer is overwritten
// by the next read. Poison the scratch right after each decode — of the full
// frame, and of the window the crop→decode rewrite takes — and compare.
func TestLoaderScratchReuseIsSafe(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		ds := fastRealDataset(4, 9)
		l := &Loader{IO: ds.IO}
		crop := &RandomResizedCrop{Size: 24}
		folder := NewImageFolder(ds, NewCompose(l, crop))
		if l.Data != ds {
			t.Fatal("NewImageFolder did not hand the dataset to the chain's Loader")
		}
		load := Transform(l)
		if windowed {
			load = folder.Transform.plan(RealData, 0, false)[0]
			if _, ok := load.(windowLoader); !ok {
				t.Fatalf("the chain is not rewritten: %s", folder.Transform.Rewrites(RealData, false))
			}
		}
		bare := &Loader{IO: ds.IO}
		onRealCtx(64, func(ctx *Ctx) {
			for touch := 0; touch < 3; touch++ { // render, then two reads
				for i := 0; i < ds.Len(); i++ {
					got := load.Apply(ctx, recordSample(ds, i)).Image
					scratch := ctx.blobScratch[:cap(ctx.blobScratch)]
					if len(scratch) == 0 {
						t.Fatal("the Loader kept no scratch buffer")
					}
					for j := range scratch {
						scratch[j] = 0xA5
					}
					want := bare.Apply(ctx, recordSample(ds, i)).Image
					if windowed {
						x0, y0, cw, ch := crop.window(ctx, i, want.W, want.H)
						full := want
						want = imaging.Crop(full, x0, y0, cw, ch)
						full.Release()
					}
					if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
						t.Fatalf("windowed %v touch %d sample %d: pixels changed when the scratch buffer was overwritten", windowed, touch, i)
					}
					got.Release()
					want.Release()
				}
			}
		})
		if st := ds.CorpusStats(); st.Rendered != 4 || st.Reads != 8 || st.ReadErrors != 0 {
			t.Fatalf("three passes over 4 samples: %+v, want rendered 4 reads 8", st)
		}
		if st := l.DecodeStats(); (st.Windowed == 12) != windowed || (st.Full == 12) == windowed {
			t.Fatalf("windowed %v: decode counters %+v", windowed, st)
		}
	}
}

// TestSimulatedEpochLeavesCorpusUntouched: a costed epoch renders nothing and
// creates no file (the file is created by the first stored render).
func TestSimulatedEpochLeavesCorpusUntouched(t *testing.T) {
	ds := data.NewImageDataset(data.ImageNetConfig(32, 4))
	sim := clock.NewSim()
	dl := NewDataLoader(sim, NewImageFolder(ds, icCompose(nil)), Config{BatchSize: 8, NumWorkers: 2, Seed: 1})
	batches := 0
	sim.Run("main", func(p clock.Proc) {
		for it := dl.Start(p); ; batches++ {
			if _, ok := it.Next(p); !ok {
				return
			}
		}
	})
	if batches != 4 {
		t.Fatalf("simulated epoch delivered %d batches, want 4", batches)
	}
	if st := ds.CorpusStats(); st != (data.CorpusStats{}) {
		t.Fatalf("a simulated epoch touched the corpus: %+v", st)
	}
}

// loaderPass times n applications of the Loader on ic_cold's geometry
// (ImageNet records, cap 256, the default modeled I/O wait) and returns decoded
// bytes per second and heap bytes allocated per op. Every steady op reads a
// sample already in the corpus; every first-touch op renders one that is not,
// which is what every touch cost before the corpus existed. b, when non-nil,
// has its timer run over exactly the timed ops.
func loaderPass(b *testing.B, n int, steady bool) (decodedBps, allocPerOp float64) {
	const records = 512
	newFolder := func() *ImageFolder {
		ds := data.NewImageDataset(data.ImageNetConfig(records, 7))
		return NewImageFolder(ds, NewCompose(&Loader{IO: data.DefaultIO()}))
	}
	timer := func(run bool) {
		switch {
		case b == nil:
		case run:
			b.StartTimer()
		default:
			b.StopTimer()
		}
	}
	var decoded int64
	var elapsed time.Duration
	var ms0, ms1 runtime.MemStats
	onRealCtx(256, func(ctx *Ctx) {
		timer(false)
		folder := newFolder()
		if steady {
			for i := 0; i < records; i++ {
				folder.GetItem(ctx, 0, 0, i).Image.Release()
			}
		}
		runtime.ReadMemStats(&ms0)
		timer(true)
		for k := 0; k < n; k++ {
			if !steady && k > 0 && k%records == 0 {
				timer(false)
				folder = newFolder() // every record untouched again
				timer(true)
			}
			start := time.Now()
			im := folder.GetItem(ctx, 0, 0, k%records).Image
			elapsed += time.Since(start)
			decoded += int64(len(im.Pix))
			im.Release()
		}
		timer(false)
		runtime.ReadMemStats(&ms1)
	})
	return float64(decoded) / elapsed.Seconds(), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
}

func BenchmarkLoaderFirstTouch(b *testing.B) {
	b.ReportAllocs()
	bps, _ := loaderPass(b, b.N, false)
	b.ReportMetric(bps/1e6, "decoded-MB/s")
}

// BenchmarkLoaderSteady fails itself when a steady touch is not what the
// corpus promises: no blob- or image-sized allocation per op (the read lands
// in the worker's scratch buffer and the image comes from the pool; what is
// left, 48 B in 2 allocations, is the boxes the decoder's pools put its plane
// scratch and the image's pixels back in — a bare decode + Release allocates
// the same two), and at
// least 1.8x the throughput of a first touch — the modeled I/O wait is in
// both, so the kernels' own ratio is higher.
func BenchmarkLoaderSteady(b *testing.B) {
	b.ReportAllocs()
	b.StopTimer()
	first, _ := loaderPass(nil, 256, false)
	bps, alloc := loaderPass(b, b.N, true)
	b.ReportMetric(bps/1e6, "decoded-MB/s")
	b.ReportMetric(bps/first, "x-first-touch")
	if b.N < 256 {
		return // too few ops to judge (the benchmark's own calibration runs)
	}
	if alloc > 1024 {
		b.Fatalf("steady Loader allocates %.0f B/op, want pool bookkeeping only (< 1 KiB)", alloc)
	}
	if bps < 1.8*first {
		b.Fatalf("steady %.1f decoded MB/s is %.2fx first touch (%.1f), want >= 1.8x", bps/1e6, bps/first, first/1e6)
	}
}

// TestLoaderBareEqualsInlineRender: a Loader outside an ImageFolder decodes
// data.ImageRecord.Materialize's bytes — the one definition of sample i's file.
func TestLoaderBareEqualsInlineRender(t *testing.T) {
	ds := fastRealDataset(3, 2)
	onRealCtx(0, func(ctx *Ctx) { // no cap named: data.DefaultMaterializeDim
		for i := 0; i < ds.Len(); i++ {
			got := loaderFolder(ds, &Loader{IO: ds.IO}).GetItem(ctx, 0, 0, i).Image
			want, err := imaging.DecodeSJPG(ds.Record(i).Materialize(0))
			if err != nil {
				t.Fatal(err)
			}
			if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("sample %d: bare Loader pixels differ from the decoded inline render", i)
			}
		}
	})
}
