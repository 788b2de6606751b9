package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/imaging"
	"lotus/internal/native"
	"lotus/internal/rng"
	"lotus/internal/tensor"
)

// TestOpRNGEqualsSampleRNGDerive: OpRNG keeps the first value of the sample
// stream instead of reseeding that stream per op. For shuffled (seed, epoch,
// index, name) sequences — including one Ctx switching seed and epoch between
// calls, as a serve-plane worker does — its first 16 draws are those of the
// child stream rng.New(SampleRNG(index).Int63(), name).
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
		want := rng.New(ctx.SampleRNG(c.index).Int63(), c.name)
		for d := 0; d < 16; d++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: %+v draw %d: OpRNG %d, child of SampleRNG %d", label, c, d, g, w)
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
// caches, and why the other rewrites are not; ApplyPrefix and ApplySuffix
// never are.
func TestPlanRewriteRule(t *testing.T) {
	ic := func() *Compose { return icCompose(nil) }
	norm := func() *Normalize {
		return &Normalize{Mean: []float32{0.5, 0.5, 0.5}, Std: []float32{0.25, 0.25, 0.25}}
	}
	for _, tc := range []struct {
		name  string
		c     *Compose
		mode  Mode
		cache bool
		want  string
	}{
		{"IC real", ic(), RealData, false, "crop→decode, tensor tail→collate"},
		{"IC real, sample cache", ic(), RealData, true, "tensor tail→collate (sample cache holds the full decode)"},
		{"random op first, sample cache", NewCompose(&RandomHorizontalFlip{}, &Loader{}, &RandomResizedCrop{Size: 8}, &ToTensor{}, norm()), RealData, true, "crop→decode, tensor tail→collate"},
		{"IC simulated", ic(), Simulated, false, "none (nothing is decoded in simulated mode; nothing is converted in simulated mode)"},
		{"ICA real", augmentedTestCompose(data.IOModel{}), RealData, false, "tensor tail→collate (no crop follows the decode)"},
		{"ICA real, sample cache", augmentedTestCompose(data.IOModel{}), RealData, true, "tensor tail→collate (no crop follows the decode)"},
		{"op between decode and crop", NewCompose(&Loader{}, noop{}, &RandomResizedCrop{Size: 8}), RealData, false, "none (no crop follows the decode; the plan does not end in ToTensor, Normalize)"},
		{"offline decode", NewCompose(&RawLoader{}, &RandomResizedCrop{Size: 8}), RealData, false, "none (no crop follows the decode; the plan does not end in ToTensor, Normalize)"},
		{"ends in ToTensor only", NewCompose(&Loader{}, &RandomResizedCrop{Size: 8}, &ToTensor{}), RealData, false, "crop→decode (the plan does not end in ToTensor, Normalize)"},
		{"Normalize not last", NewCompose(&Loader{}, &ToTensor{}, norm(), noop{}), RealData, false, "none (no crop follows the decode; the plan does not end in ToTensor, Normalize)"},
		{"Normalize over two channels", NewCompose(&Loader{}, &ToTensor{}, &Normalize{Mean: []float32{0, 0}, Std: []float32{1, 1}}), RealData, false, "none (no crop follows the decode; the plan does not end in ToTensor, Normalize)"},
		{"all deterministic, sample cache holds the whole plan", NewCompose(&Loader{}, &Resize{W: 8, H: 8}, &ToTensor{}, norm()), RealData, true, "none (no crop follows the decode; sample cache holds the tensor)"},
		{"OD real, sample cache", NewCompose(&Loader{}, &Resize{W: 8, H: 8}, &RandomHorizontalFlip{}, &ToTensor{}, norm()), RealData, true, "tensor tail→collate (no crop follows the decode)"},
	} {
		if got := tc.c.Rewrites(tc.mode, tc.cache); got != tc.want {
			t.Errorf("%s: Rewrites = %q, want %q", tc.name, got, tc.want)
		}
	}

	// ApplyPrefix and ApplySuffix run the plan as written: full decodes.
	ds := fastRealDataset(4, 9)
	chain := NewCompose(&Loader{IO: ds.IO}, &RandomResizedCrop{Size: 16}, &ToTensor{})
	folder := NewImageFolder(ds, chain)
	onRealCtx(64, func(ctx *Ctx) {
		for i := 0; i < ds.Len(); i++ {
			chain.ApplySuffix(ctx, 0, 0, chain.ApplyPrefix(ctx, 0, 0, recordSample(ds, i)))
		}
	})
	if st := folder.DecodeStats(); st.Windowed != 0 || st.Full != 4 {
		t.Fatalf("ApplyPrefix + ApplySuffix decoded %+v, want 4 full decodes", st)
	}
}

// TestPlanLookupAllocatesNothing: the lookup Compose.Apply makes per sample
// — where a sample cache splits the plan, then the op list of the rewrites in
// force — builds no string and allocates nothing once the plans are built,
// with a sample cache and without.
func TestPlanLookupAllocatesNothing(t *testing.T) {
	c := icCompose(nil)
	for _, cache := range []bool{false, true} {
		lookup := func() { planSink = c.plan(RealData, c.cacheSplit(cache), true) }
		lookup()
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("sample cache %v: the plan lookup allocates %v times per sample, want 0", cache, n)
		}
	}
}

var planSink []Transform

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
		w, h, err := imaging.SJPGDims(ds.Record(i).Materialize(dim))
		if err != nil {
			t.Fatal(err)
		}
		if cs.img == nil || cs.img.W != w || cs.img.H != h {
			t.Fatalf("sample %d: cached snapshot is not the file's %dx%d full decode", i, w, h)
		}
		cs.Release()
	}
}

// TestTensorTailTable: the table the fused pass reads is, entry for entry and
// bit for bit, (float32(v)/255 - mean) * (1/std) — ToTensor's and Normalize's
// arithmetic — including a zero std (an infinite or NaN entry) and negative
// means.
func TestTensorTailTable(t *testing.T) {
	for _, norm := range []*Normalize{
		{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
		{Mean: []float32{-0.5, 0, -127.25}, Std: []float32{0, 1, -3}},
		{Mean: []float32{0.2, 1, 0.4}, Std: []float32{0, 0, 1e-30}},
	} {
		tail := newTensorTail(&ToTensor{}, norm)
		for c := 0; c < 3; c++ {
			mean, inv := norm.Mean[c], float32(1)/norm.Std[c]
			for v := 0; v < 256; v++ {
				want := (float32(uint8(v))/255 - mean) * inv
				if got := tail.lut[c][v]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("mean %v std %v: lut[%d][%d] = %v (%#x), want %v (%#x)", norm.Mean, norm.Std,
						c, v, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

// tailChains are the three image plans at test scale, each ending in
// ToTensor, Normalize: IC (decode, random resized crop, flip), ICA (a cached
// deterministic prefix and a random suffix) and OD (decode, resize, flip).
func tailChains(ds *data.ImageDataset) map[string]func() *Compose {
	norm := func() *Normalize {
		return &Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}}
	}
	return map[string]func() *Compose{
		"IC": func() *Compose {
			return NewCompose(&Loader{IO: ds.IO}, &RandomResizedCrop{Size: 32}, &RandomHorizontalFlip{}, &ToTensor{}, norm())
		},
		"ICA": func() *Compose { return augmentedTestCompose(ds.IO) },
		"OD": func() *Compose {
			return NewCompose(&Loader{IO: ds.IO}, &Resize{W: 40, H: 24}, &RandomHorizontalFlip{}, &ToTensor{}, norm())
		},
	}
}

// asWritten runs one batch the way every caller but a BatchWorker does: each
// sample through GetItem on a Ctx that does not collate, then Collate.Run.
func asWritten(p clock.Proc, ds Dataset, cfg Config, indices []int) *tensor.Tensor {
	ctx := &Ctx{Proc: p, Mode: cfg.Mode, Seed: cfg.Seed, Epoch: cfg.Epoch, MaterializeDim: cfg.MaterializeDim}
	samples := make([]Sample, len(indices))
	for i, idx := range indices {
		samples[i] = ds.GetItem(ctx, 0, 0, idx)
		if samples[i].Tensor == nil || samples[i].Image != nil {
			panic("a direct GetItem returned an unfinished sample")
		}
	}
	return (&Collate{}).Run(ctx, samples)
}

// pinPlan makes every plan lookup of c return the op list under the
// rewrites in set, whatever the mode, cache and caller.
func pinPlan(c *Compose, set int) *Compose {
	c.plansOnce.Do(c.buildPlans)
	ops := c.plans[set]
	for s := range c.plans {
		c.plans[s] = ops
	}
	return c
}

// TestRewriteSubsetsEqualAsWritten: under every subset of the rewrite table,
// for IC, ICA and OD, over one worker and four, epochs 0 to 2, into a fresh
// tensor, into a region of a caller's buffer, and into a buffer that takes
// the pixels — finished with TailTable afterwards — the batch a BatchWorker
// makes holds the float32 bit patterns of the plan as written. The subset's
// rewrites do run: a windowed decode per sample under crop→decode, the
// pixels offered under tensor tail→collate. The plan as written does not
// change.
func TestRewriteSubsetsEqualAsWritten(t *testing.T) {
	const n, dim, off = 16, 64, 16
	ds := fastRealDataset(n, 3)
	batches := BuildBatchPlan(n, 4, true, false, 11)
	for name, chain := range tailChains(ds) {
		for epoch := 0; epoch < 3; epoch++ {
			cfg := Config{Mode: RealData, Seed: 5, Epoch: epoch, MaterializeDim: dim}
			written := pinPlan(chain(), 0)
			ref := NewImageFolder(ds, written)
			want := make([]*tensor.Tensor, len(batches))
			clock.NewReal().Run("as-written", func(p clock.Proc) {
				for b, indices := range batches {
					want[b] = asWritten(p, ref, cfg, indices)
				}
			})
			if st := ref.DecodeStats(); st.Windowed != 0 || st.Full != n {
				t.Fatalf("%s: the plan as written decoded %+v, want %d full", name, st, n)
			}
			for set := 0; set < 1<<len(rewrites); set++ {
				for _, workers := range []int{1, 4} {
					for _, into := range []string{"fresh", "frame", "pixels"} {
						c := chain()
						folder := NewImageFolder(ds, pinPlan(c, set))
						inForce := func(name string) bool {
							r := slices.IndexFunc(rewrites[:], func(rw rewrite) bool { return rw.name == name })
							return set&(1<<r) != 0 && c.matches[r].ops != nil
						}
						windowed, fused := inForce("crop→decode"), inForce("tensor tail→collate")
						label := fmt.Sprintf("%s rewrites %02b workers %d epoch %d into %s", name, set, workers, epoch, into)
						pool := make([]*BatchWorker, workers)
						for i := range pool {
							pool[i] = NewBatchWorker(i, folder, cfg)
						}
						clock.NewReal().Run("subset-test", func(p clock.Proc) {
							for b, indices := range batches {
								var frame []float32
								var pixels []uint8
								var dst CollateDst
								if into != "fresh" {
									dst = func(dtype tensor.DType, shape []int) *tensor.Tensor {
										if dtype == tensor.Uint8 {
											if into != "pixels" {
												return nil // decline the pixels: the float32 batch follows
											}
											pixels = make([]uint8, off+tensor.NumElems(shape)+1)
											return tensor.FromU8(pixels[off:len(pixels)-1], shape...)
										}
										frame = make([]float32, off+tensor.NumElems(shape)+1)
										return tensor.FromF32(frame[off:len(frame)-1], shape...)
									}
								}
								batch, err := pool[b%workers].Run(p, b, indices, dst)
								if err != nil {
									t.Error(err)
									return
								}
								got, label := batch.Data, fmt.Sprintf("%s batch %d", label, b)
								if into == "pixels" && fused {
									if got.U8 == nil || frame != nil || &got.U8[0] != &pixels[off] || pixels[off-1] != 0 || pixels[len(pixels)-1] != 0 {
										t.Errorf("%s: the pixels are not exactly the region the caller gave", label)
										return
									}
									got = finishPixels(got, c.TailTable(RealData, false))
								} else if into != "fresh" {
									if pixels != nil || &got.F32[0] != &frame[off] {
										t.Errorf("%s: the batch is not in the caller's float32 buffer", label)
										return
									}
									if frame[off-1] != 0 || frame[len(frame)-1] != 0 {
										t.Errorf("%s: the collate wrote outside the region it was given", label)
										return
									}
								}
								if fmt.Sprint(got.Shape) != fmt.Sprint(want[b].Shape) || got.Dtype != want[b].Dtype {
									t.Errorf("%s: %v, as written %v", label, got, want[b])
									return
								}
								for i := range want[b].F32 {
									if math.Float32bits(got.F32[i]) != math.Float32bits(want[b].F32[i]) {
										t.Errorf("%s: element %d is %v, as written %v", label, i, got.F32[i], want[b].F32[i])
										return
									}
								}
							}
						})
						if t.Failed() {
							return
						}
						if st := folder.DecodeStats(); windowed && (st.Windowed != n || st.Full != 0 || st.PxSkipped <= 0) || !windowed && st.Windowed != 0 {
							t.Fatalf("%s: decodes %+v, want %d windowed: %v", label, st, n, windowed)
						}
						if !slices.Equal(c.Names(), written.Names()) || c.SplitPoint() != written.SplitPoint() {
							t.Fatalf("%s: the plan as written changed: %v, split %d", label, c.Names(), c.SplitPoint())
						}
					}
				}
			}
		}
	}
}

// finishPixels is the far side of the wire point: a uint8 [N, H, W, 3]
// batch through the tail's table into float32 [N, 3, H, W].
func finishPixels(px *tensor.Tensor, lut *[3][256]float32) *tensor.Tensor {
	n, h, w := px.Shape[0], px.Shape[1], px.Shape[2]
	out := tensor.Zeros(tensor.Float32, n, 3, h, w)
	per := 3 * h * w
	for i := range n {
		im := imaging.Image{W: w, H: h, Pix: px.U8[i*per : (i+1)*per]}
		im.MapInto(out.F32[i*per:(i+1)*per], lut)
	}
	return out
}

// pixTap sits where a plan reaches its tensor tail and notes each sample's
// image as it passes.
type pixTap struct {
	noop
	images []*imaging.Image
	pix    [][]uint8
}

func (tap *pixTap) Apply(_ *Ctx, s Sample) Sample {
	tap.images = append(tap.images, s.Image)
	tap.pix = append(tap.pix, s.Image.Pix)
	return s
}

// TestTensorTailReleasesEachImageOnce: with the tail deferred a batch's
// images stay live, k at a time, until the collate. They are k distinct
// pooled buffers (a buffer released twice would be handed to two owners),
// every one is back in the pool when Run returns, and nothing of the batch
// depends on them from then on: poisoned at that moment, they change neither
// this batch nor — re-issued to the next one's decodes — any later batch.
func TestTensorTailReleasesEachImageOnce(t *testing.T) {
	const n, dim = 24, 64
	ds := fastRealDataset(n, 3)
	tap := &pixTap{}
	norm := &Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}}
	chain := func(tap Transform) *Compose {
		return NewCompose(&Loader{IO: ds.IO}, &RandomResizedCrop{Size: 32}, &RandomHorizontalFlip{}, tap, &ToTensor{}, norm)
	}
	cfg := Config{Mode: RealData, Seed: 5, MaterializeDim: dim}
	w := NewBatchWorker(0, NewImageFolder(ds, chain(tap)), cfg)
	ref := NewImageFolder(ds, chain(noop{}))
	clock.NewReal().Run("release-test", func(p clock.Proc) {
		for b, indices := range BuildBatchPlan(n, 8, true, false, 11) {
			tap.images, tap.pix = nil, nil
			batch, err := w.Run(p, b, indices, nil)
			if err != nil {
				t.Error(err)
				return
			}
			seen := make(map[*uint8]bool)
			for i, im := range tap.images {
				if first := &tap.pix[i][0]; seen[first] {
					t.Errorf("batch %d: two live samples share one pixel buffer", b)
					return
				} else {
					seen[first] = true
				}
				if im.Pix != nil {
					t.Errorf("batch %d sample %d: image still holds its pixels after the collate", b, i)
					return
				}
				for j := range tap.pix[i] {
					tap.pix[i][j] = 0xA5
				}
			}
			if len(seen) != len(indices) {
				t.Errorf("batch %d: %d images passed the tap, want %d", b, len(seen), len(indices))
				return
			}
			if want := asWritten(p, ref, cfg, indices); !slices.Equal(batch.Data.F32, want.F32) {
				t.Errorf("batch %d differs from the plan as written once its released images are poisoned", b)
				return
			}
		}
	})
}

// TestTensorTailRecordsAndFailures: whatever a plan's rewrites, a batch emits
// one op record per op per sample, in plan order, and then the collate's; and
// a batch whose images differ in size fails with the message it always has.
func TestTensorTailRecordsAndFailures(t *testing.T) {
	const n, dim = 8, 64
	ds := fastRealDataset(n, 3)
	norm := &Normalize{Mean: []float32{0.5, 0.5, 0.5}, Std: []float32{0.25, 0.25, 0.25}}
	indices := []int{5, 2, 7, 0}
	for _, tc := range []struct {
		name   string
		chain  *Compose
		mode   Mode
		cached bool
	}{
		{"IC fused", NewCompose(&Loader{IO: ds.IO}, &RandomResizedCrop{Size: 16}, &RandomHorizontalFlip{}, &ToTensor{}, norm), RealData, false},
		{"IC fused behind a sample cache", NewCompose(&Loader{IO: ds.IO}, &RandomResizedCrop{Size: 16}, &RandomHorizontalFlip{}, &ToTensor{}, norm), RealData, true},
		{"whole plan cached", NewCompose(&Loader{IO: ds.IO}, &Resize{W: 16, H: 16}, &ToTensor{}, norm), RealData, true},
		{"split before the tail", NewCompose(&Loader{IO: ds.IO}, &Resize{W: 16, H: 16}, &RandomHorizontalFlip{}, &ToTensor{}, norm), RealData, true},
		{"ToTensor only", NewCompose(&Loader{IO: ds.IO}, &Resize{W: 16, H: 16}, &ToTensor{}), RealData, false},
		{"Normalize not last", NewCompose(&Loader{IO: ds.IO}, &Resize{W: 16, H: 16}, &ToTensor{}, norm, noop{}), RealData, false},
		{"simulated", icCompose(nil), Simulated, false},
	} {
		var got []string
		hooks := &Hooks{OnOp: func(_, _, sample int, op string, _ time.Time, _ time.Duration) {
			got = append(got, fmt.Sprintf("%d:%s", sample, op))
		}}
		tc.chain.Hooks = hooks
		cfg := Config{Mode: tc.mode, Seed: 5, MaterializeDim: dim, Hooks: hooks}
		if tc.cached {
			cfg.SampleCache, cfg.PrefixFP = NewSampleCache(1<<20, true, nil), 1
		}
		if tc.mode == Simulated {
			cfg.Engine = native.NewEngine(native.Intel, native.DefaultCPU())
		}
		w := NewBatchWorker(0, NewImageFolder(ds, tc.chain), cfg)
		// The second pass finds the plan's prefix in the sample cache, where
		// there is one, and a cached prefix's ops do not run.
		want := func(pass int) []string {
			ops := tc.chain.Names()
			if tc.cached && pass > 0 {
				ops = ops[tc.chain.SplitPoint():]
			}
			var recs []string
			for _, idx := range indices {
				for _, op := range ops {
					recs = append(recs, fmt.Sprintf("%d:%s", idx, op))
				}
			}
			return append(recs, "-1:Collate")
		}
		run := func(p clock.Proc) {
			for pass := 0; pass < 2; pass++ {
				got = nil
				if _, err := w.Run(p, pass, indices, nil); err != nil {
					t.Errorf("%s: %v", tc.name, err)
					return
				}
				if !slices.Equal(got, want(pass)) {
					t.Errorf("%s pass %d: op records\n%v\nwant\n%v", tc.name, pass, got, want(pass))
					return
				}
			}
		}
		if tc.mode == Simulated {
			clock.NewSim().Run("records-test", run)
		} else {
			clock.NewReal().Run("records-test", run)
		}
	}

	// No resize: the batch's images keep their files' different sizes.
	mixed := func() *ImageFolder { return NewImageFolder(ds, NewCompose(&Loader{IO: ds.IO}, &ToTensor{}, norm)) }
	cfg := Config{Mode: RealData, Seed: 5, MaterializeDim: dim}
	clock.NewReal().Run("mixed-test", func(p clock.Proc) {
		var want string
		func() {
			defer func() { want = fmt.Sprint(recover()) }()
			asWritten(p, mixed(), cfg, indices)
		}()
		if !strings.HasPrefix(want, "tensor: Stack shape mismatch") {
			t.Errorf("the plan as written fails with %q", want)
			return
		}
		_, err := NewBatchWorker(0, mixed(), cfg).Run(p, 0, indices, nil)
		if err == nil || err.Error() != "pipeline: worker 0 failed on batch 0: "+want {
			t.Errorf("mixed sizes with the tail deferred: %v\nas written: %s", err, want)
		}
	})
}

// tailBatch returns k samples at the point a plan reaches its tensor tail:
// each a pooled size x size image of its own, filled from src.
func tailBatch(src *imaging.Image, k int) []Sample {
	samples := make([]Sample, k)
	for i := range samples {
		im := imaging.GetImage(src.W, src.H)
		copy(im.Pix, src.Pix)
		samples[i] = Sample{Index: i, Width: src.W, Height: src.H, Channels: 3, Dtype: tensor.Uint8, Image: im}
	}
	return samples
}

var tailSink *tensor.Tensor

// BenchmarkTensorTail fails itself unless the fused tensor tail — ToTensor
// and Normalize deferred, one pass per sample inside the collate — costs at
// most 0.5x the tail as written (ToTensor, Normalize, then the collate's
// copy) for a batch of 32 samples of 224x224 collated into a caller's buffer,
// and allocates under 1 KiB per batch doing so. Both are timed in this
// process, interleaved, so the shared runner's speed cancels out of the
// ratio.
func BenchmarkTensorTail(b *testing.B) {
	const k, size = 32, 224
	src := imaging.SynthesizeImage(size, size, 7)
	chain := NewCompose(&ToTensor{}, &Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}})
	frame := make([]float32, 16+k*3*size*size)
	dst := func(dtype tensor.DType, shape []int) *tensor.Tensor {
		if dtype != tensor.Float32 {
			return nil // the local path: the float32 batch, not the pixels
		}
		return tensor.FromF32(frame[16:], shape...)
	}
	clock.NewReal().Run("bench", func(p clock.Proc) {
		var mem runtime.MemStats
		run := func(fused bool) (d time.Duration, allocated uint64) {
			ctx := &Ctx{Proc: p, Mode: RealData, collates: fused}
			samples := tailBatch(src, k)
			runtime.ReadMemStats(&mem)
			allocated = -mem.TotalAlloc
			start := time.Now()
			for i, s := range samples {
				samples[i] = chain.Apply(ctx, 0, 0, s)
			}
			tailSink = (&Collate{}).RunInto(ctx, samples, dst)
			d = time.Since(start)
			runtime.ReadMemStats(&mem)
			return d, allocated + mem.TotalAlloc
		}
		for i := 0; i < 3; i++ { // warm the pools and fault the frame in
			run(false)
			run(true)
		}
		var written, fused time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 5; j++ {
				d, _ := run(false)
				written += d
				d, _ = run(true)
				fused += d
			}
		}
		b.StopTimer()
		// What a fused batch allocates, as the median of a few run on their
		// own: a collection empties the image pools (next to the tail as
		// written, every few batches) and the batch after it pays the refill.
		var allocated []uint64
		for i := 0; i < 11; i++ {
			_, n := run(true)
			allocated = append(allocated, n)
		}
		slices.Sort(allocated)
		perBatch := float64(allocated[len(allocated)/2])
		n := float64(b.N * 5 * k)
		ratio := float64(fused) / float64(written)
		b.ReportMetric(float64(written.Microseconds())/n, "written-µs/sample")
		b.ReportMetric(float64(fused.Microseconds())/n, "fused-µs/sample")
		b.ReportMetric(ratio, "fused/written")
		b.ReportMetric(perBatch, "fused-B/batch")
		if ratio > 0.5 {
			b.Errorf("the fused tensor tail costs %.2fx the tail as written, want <= 0.5x", ratio)
		}
		if perBatch >= 1024 {
			b.Errorf("the fused tensor tail allocates %.0f B per batch into a caller's buffer, want < 1 KiB", perBatch)
		}
	})
}
