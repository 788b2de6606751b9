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
