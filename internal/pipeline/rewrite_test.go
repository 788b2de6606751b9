package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/imaging"
)

// TestOpRNGEqualsSampleRNGDerive: OpRNG keeps the one value Derive draws from
// the sample stream instead of reseeding that stream per op. For shuffled
// (seed, epoch, index, name) sequences — including one Ctx switching seed and
// epoch between calls, as a serve-plane worker does — its first 16 draws are
// those of SampleRNG(index).Derive(name).
func TestOpRNGEqualsSampleRNGDerive(t *testing.T) {
	type call struct {
		seed         int64
		epoch, index int
		name         string
	}
	var calls []call
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		for _, epoch := range []int{0, 1, 2, 9} {
			for _, index := range []int{0, 1, 2, 31, 511} {
				for _, name := range []string{"loader", "rrc", "rhf", "rc", "rpn"} {
					calls = append(calls, call{seed, epoch, index, name})
				}
			}
		}
	}
	check := func(label string, ctx *Ctx, c call) {
		ctx.Seed, ctx.Epoch = c.seed, c.epoch
		got := ctx.OpRNG(c.index, c.name)
		want := ctx.SampleRNG(c.index).Derive(c.name)
		for d := 0; d < 16; d++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: %+v draw %d: OpRNG %d, SampleRNG.Derive %d", label, c, d, g, w)
			}
		}
	}
	// Pipeline order: every op of one sample, then the next sample.
	ctx := &Ctx{}
	for _, c := range calls {
		check("in order", ctx, c)
	}
	// Any order, on a Ctx that has seen other seeds and epochs.
	rand.New(rand.NewSource(1)).Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	for _, c := range calls {
		check("shuffled", ctx, c)
	}
	// A fresh Ctx whose very first sample seed is zero.
	check("fresh", &Ctx{}, call{0, 0, 0, "rrc"})
}

// noop is a deterministic op that does nothing; between a Loader and a crop
// it keeps the plan as written.
type noop struct{}

func (noop) Name() string                  { return "Noop" }
func (noop) Kernels() []string             { return nil }
func (noop) Deterministic() bool           { return true }
func (noop) Apply(_ *Ctx, s Sample) Sample { return s }

// TestPlanRewriteRule: which plans are rewritten, under which modes and
// caches, and that ApplyPrefix/ApplySuffix never are.
func TestPlanRewriteRule(t *testing.T) {
	ic := func() *Compose { return icCompose(nil) }
	for _, tc := range []struct {
		name  string
		c     *Compose
		mode  Mode
		cache bool
		want  string
	}{
		{"IC real", ic(), RealData, false, "crop→decode"},
		{"IC real, sample cache", ic(), RealData, true, "none (sample cache holds the full decode)"},
		{"IC real, sample cache, split disabled", &Compose{Transforms: ic().Transforms, SplitOverride: -1}, RealData, true, "crop→decode"},
		{"IC simulated", ic(), Simulated, false, "none (nothing is decoded in simulated mode)"},
		{"ICA real", augmentedTestCompose(data.IOModel{}), RealData, false, "none (no crop follows the decode)"},
		{"op between decode and crop", NewCompose(&Loader{}, noop{}, &RandomResizedCrop{Size: 8}), RealData, false, "none (no crop follows the decode)"},
		{"offline decode", NewCompose(&RawLoader{}, &RandomResizedCrop{Size: 8}), RealData, false, "none (no crop follows the decode)"},
	} {
		if got := tc.c.Rewrites(tc.mode, tc.cache); got != tc.want {
			t.Errorf("%s: Rewrites = %q, want %q", tc.name, got, tc.want)
		}
	}

	ds := fastRealDataset(4, 9)
	loader := &Loader{IO: ds.IO}
	chain := NewCompose(loader, &RandomResizedCrop{Size: 16}, &ToTensor{})
	folder := NewImageFolder(ds, chain)
	onRealCtx(64, func(ctx *Ctx) {
		for i := 0; i < ds.Len(); i++ {
			whole := folder.GetItem(ctx, 0, 0, i).Tensor
			parts := chain.ApplySuffix(ctx, 0, 0, chain.ApplyPrefix(ctx, 0, 0, recordSample(ds, i))).Tensor
			if !slices.Equal(whole.F32, parts.F32) {
				t.Fatalf("sample %d: Apply (rewritten) differs from ApplyPrefix + ApplySuffix (as written)", i)
			}
		}
	})
	if st := folder.DecodeStats(); st.Windowed != 4 || st.Full != 4 || st.PxSkipped <= 0 {
		t.Fatalf("4 rewritten and 4 as-written passes: %+v, want 4 windowed and 4 full", st)
	}
	if names := chain.Names(); fmt.Sprint(names) != "[Loader RandomResizedCrop ToTensor]" || chain.SplitPoint() != 1 {
		t.Fatalf("the plan as written changed: %v, split %d", names, chain.SplitPoint())
	}
}

// TestSampleCacheHoldsFullDecodes: with the sample cache on, IC's cached
// prefix is the Loader's output, so the crop→decode rewrite stays off: every
// entry is the file's full W x H decode, no decode takes a window, and the
// epochs still equal the uncached — rewritten — run.
func TestSampleCacheHoldsFullDecodes(t *testing.T) {
	const n, dim, fp = 12, 64, 0xfeed
	ds := fastRealDataset(n, 3)
	run := func(l *Loader, epoch int, cache *SampleCache) map[int][]float32 {
		chain := NewCompose(l, &RandomResizedCrop{Size: 32}, &RandomHorizontalFlip{}, &ToTensor{})
		clk := clock.NewReal()
		dl := NewDataLoader(clk, NewImageFolder(ds, chain), Config{
			BatchSize: 4, NumWorkers: 2, Shuffle: true, Seed: 5, Epoch: epoch,
			Mode: RealData, MaterializeDim: dim, SampleCache: cache, PrefixFP: fp,
		})
		out := make(map[int][]float32)
		clk.Run("main", func(p clock.Proc) {
			it := dl.Start(p)
			for {
				b, ok := it.Next(p)
				if !ok {
					if err := it.Err(); err != nil {
						t.Errorf("epoch %d loader: %v", epoch, err)
					}
					return
				}
				out[b.ID] = append([]float32(nil), b.Data.F32...)
			}
		})
		return out
	}
	cache := NewSampleCache(64<<20, true, nil)
	cached, plain := &Loader{IO: ds.IO}, &Loader{IO: ds.IO}
	for epoch := 0; epoch < 3; epoch++ {
		samplesEqual(t, fmt.Sprintf("epoch %d", epoch), run(plain, epoch, nil), run(cached, epoch, cache))
	}
	if st := cached.DecodeStats(); st.Windowed != 0 || st.Full != n || st.PxSkipped != 0 {
		t.Fatalf("cached run: %+v, want %d full decodes and none windowed", st, n)
	}
	if st := plain.DecodeStats(); st.Windowed != 3*n || st.Full != 0 {
		t.Fatalf("uncached run: %+v, want %d windowed decodes", st, 3*n)
	}
	for i := 0; i < n; i++ {
		cs, err := cache.sf.Acquire(SampleKey{PrefixFP: fp, Index: i}, nil, func() (*cachedSample, error) {
			return nil, fmt.Errorf("sample %d is not cached", i)
		})
		if err != nil {
			t.Fatal(err)
		}
		w, h, err := imaging.SJPGDims(ds.Materialize(i, dim))
		if err != nil {
			t.Fatal(err)
		}
		if cs.img == nil || cs.img.W != w || cs.img.H != h {
			t.Fatalf("sample %d: cached snapshot is not the file's %dx%d full decode", i, w, h)
		}
		cs.Release()
	}
}
