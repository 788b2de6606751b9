package workloads

import (
	"bytes"
	"sync"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/pipeline"
)

// pixTap records the pixels each sample carries out of the op before it,
// keyed by dataset index.
type pixTap struct {
	mu  sync.Mutex
	pix map[int][]byte
}

func (p *pixTap) Name() string        { return "PixTap" }
func (p *pixTap) Kernels() []string   { return nil }
func (p *pixTap) Deterministic() bool { return true }
func (p *pixTap) Apply(_ *pipeline.Ctx, s pipeline.Sample) pipeline.Sample {
	p.mu.Lock()
	p.pix[s.Index] = append([]byte(nil), s.Image.Pix...)
	p.mu.Unlock()
	return s
}

// TestLoaderCorpusPixelsMatchInline: for the three image workloads, the pixels
// the Loader of Spec.Dataset decodes — first touch or corpus read, one worker
// or four, epoch 0 or 1 — equal those of a bare Loader, which renders every
// file inline the way every touch did before the corpus existed.
func TestLoaderCorpusPixelsMatchInline(t *testing.T) {
	const n, dim = 12, 64
	for _, kind := range []Kind{IC, ICA, OD} {
		spec := specFor(kind, n, 5)
		folder := spec.Dataset(nil).(*pipeline.ImageFolder)
		loader := folder.Transform.Transforms[0].(*pipeline.Loader)
		if loader.Data != folder.Data {
			t.Fatalf("%s: Spec.Dataset's Loader does not read the folder's dataset", kind)
		}
		// The chain under test is the workload's own Loader, a tap, and just
		// enough after it to collate.
		run := func(l *pipeline.Loader, workers, epoch int) map[int][]byte {
			tap := &pixTap{pix: make(map[int][]byte)}
			chain := pipeline.NewCompose(l, tap, &pipeline.Resize{W: 8, H: 8}, &pipeline.ToTensor{})
			clk := clock.NewReal()
			dl := pipeline.NewDataLoader(clk, &pipeline.ImageFolder{Data: folder.Data, Transform: chain}, pipeline.Config{
				BatchSize: 4, NumWorkers: workers, Shuffle: true, Seed: spec.Seed, Epoch: epoch,
				Mode: pipeline.RealData, MaterializeDim: dim,
			})
			clk.Run("main", func(p clock.Proc) {
				it := dl.Start(p)
				for {
					if _, ok := it.Next(p); !ok {
						if err := it.Err(); err != nil {
							t.Errorf("%s: loader: %v", kind, err)
						}
						return
					}
				}
			})
			return tap.pix
		}
		want := run(&pipeline.Loader{IO: data.IOModel{}}, 1, 0)
		if len(want) != n {
			t.Fatalf("%s: the inline run decoded %d of %d samples", kind, len(want), n)
		}
		for _, workers := range []int{1, 4} {
			for epoch := 0; epoch < 2; epoch++ {
				got := run(loader, workers, epoch)
				for i := 0; i < n; i++ {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s workers %d epoch %d: sample %d differs from the inline render", kind, workers, epoch, i)
					}
				}
			}
		}
		if st := folder.Data.CorpusStats(); st.Rendered != n || st.Reads != 3*n || st.ReadErrors != 0 || st.Disabled {
			t.Fatalf("%s: four passes over %d samples: %+v, want rendered %d, reads %d", kind, n, st, n, 3*n)
		}
	}
}

// passThrough is an op that does nothing. Between IC's Loader and its crop it
// keeps the plan as written: nothing is rewritten around an op the plan
// knows nothing about.
type passThrough struct{}

func (passThrough) Name() string                                             { return "PassThrough" }
func (passThrough) Kernels() []string                                        { return nil }
func (passThrough) Deterministic() bool                                      { return true }
func (passThrough) Apply(_ *pipeline.Ctx, s pipeline.Sample) pipeline.Sample { return s }

// TestCropPushdownPixelsMatchPlanAsWritten: IC's Loader and RandomResizedCrop
// run rewritten (the decode takes the crop's window, the crop only resizes)
// hand on the pixels they hand on as written (full decode, crop, resize) —
// one worker or four, epochs 0 to 2, first touch or corpus read.
func TestCropPushdownPixelsMatchPlanAsWritten(t *testing.T) {
	const n, dim = 16, 64
	spec := ICSpec(n, 5)
	folder := spec.Dataset(nil).(*pipeline.ImageFolder)
	ops := folder.Transform.Transforms
	loader, crop := ops[0].(*pipeline.Loader), ops[1].(*pipeline.RandomResizedCrop)
	run := func(l *pipeline.Loader, rewritten bool, workers, epoch int) map[int][]byte {
		tap := &pixTap{pix: make(map[int][]byte)}
		chain := pipeline.NewCompose(l, crop, tap, &pipeline.Resize{W: 8, H: 8}, &pipeline.ToTensor{})
		want := "crop→decode (the plan does not end in ToTensor, Normalize)"
		if !rewritten {
			chain = pipeline.NewCompose(l, passThrough{}, crop, tap, &pipeline.Resize{W: 8, H: 8}, &pipeline.ToTensor{})
			want = "none (no crop follows the decode; the plan does not end in ToTensor, Normalize)"
		}
		if got := chain.Rewrites(pipeline.RealData, false); got != want {
			t.Fatalf("rewritten %v: the chain's rewrites are %q, want %q", rewritten, got, want)
		}
		clk := clock.NewReal()
		dl := pipeline.NewDataLoader(clk, &pipeline.ImageFolder{Data: folder.Data, Transform: chain}, pipeline.Config{
			BatchSize: 4, NumWorkers: workers, Shuffle: true, Seed: spec.Seed, Epoch: epoch,
			Mode: pipeline.RealData, MaterializeDim: dim,
		})
		clk.Run("main", func(p clock.Proc) {
			it := dl.Start(p)
			for {
				if _, ok := it.Next(p); !ok {
					if err := it.Err(); err != nil {
						t.Errorf("loader: %v", err)
					}
					return
				}
			}
		})
		return tap.pix
	}
	inline := &pipeline.Loader{IO: data.IOModel{}} // renders every file, reads no corpus
	for epoch := 0; epoch < 3; epoch++ {
		want := run(inline, false, 1, epoch)
		if len(want) != n {
			t.Fatalf("epoch %d: the as-written run cropped %d of %d samples", epoch, len(want), n)
		}
		for _, workers := range []int{1, 4} {
			got := run(loader, true, workers, epoch)
			for i := 0; i < n; i++ {
				if len(got[i]) != 224*224*3 || !bytes.Equal(got[i], want[i]) {
					t.Fatalf("workers %d epoch %d: sample %d differs from the plan as written", workers, epoch, i)
				}
			}
		}
	}
	if st := loader.DecodeStats(); st.Windowed != 6*n || st.Full != 0 || st.PxSkipped <= 0 {
		t.Fatalf("six rewritten passes over %d samples: %+v", n, st)
	}
	if st := inline.DecodeStats(); st.Windowed != 0 || st.Full != 3*n || st.PxSkipped != 0 {
		t.Fatalf("three as-written passes over %d samples: %+v", n, st)
	}
}
