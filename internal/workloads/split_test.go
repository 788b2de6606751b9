package workloads

import (
	"math"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// TestSplitPointsPerWorkload pins each pipeline's deterministic prefix: the
// sample cache's hit surface. A transform reordering that shrinks a prefix
// silently would gut the cache, so the splits are asserted explicitly.
func TestSplitPointsPerWorkload(t *testing.T) {
	want := map[Kind]int{IC: 1, ICA: 2, IS: 1, OD: 2}
	for kind, split := range want {
		spec := specFor(kind, 16, 7)
		if got := spec.Compose(nil).SplitPoint(); got != split {
			t.Errorf("%s: split point %d, want %d", kind, got, split)
		}
	}
}

func specFor(kind Kind, samples int, seed int64) Spec {
	switch kind {
	case IC:
		return ICSpec(samples, seed)
	case ICA:
		return ICASpec(samples, seed)
	case IS:
		return ISSpec(samples, seed)
	case OD:
		return ODSpec(samples, seed)
	}
	panic(kind)
}

// applySplit runs one prototype sample through the spec's chain, either
// unsplit (caching disabled) or as prefix then suffix, and returns the
// resulting sample plus the virtual time the run consumed.
func applySplit(spec Spec, mode pipeline.Mode, split bool, epoch int) (pipeline.Sample, int64) {
	engine := native.NewEngine(spec.Arch, native.DefaultCPU())
	proto := spec.Prototype()
	var out pipeline.Sample
	var elapsed int64
	sim := clock.NewSim()
	sim.Run("main", func(p clock.Proc) {
		ctx := &pipeline.Ctx{Proc: p, Engine: engine, Thread: &native.Thread{ID: 1},
			Mode: mode, Seed: spec.Seed, Epoch: epoch, MaterializeDim: 48}
		c := spec.Compose(nil)
		s := proto
		if split {
			s = c.ApplyPrefix(ctx, 1, 0, s)
			s = c.ApplySuffix(ctx, 1, 0, s)
		} else {
			s = c.Apply(ctx, 1, 0, s)
		}
		out = s
		elapsed = p.Now().Sub(clock.Epoch).Nanoseconds()
	})
	return out, elapsed
}

// payloadBytes flattens whichever real payload the sample carries.
func payloadBytes(s pipeline.Sample) []byte {
	switch {
	case s.Tensor != nil && s.Tensor.F32 != nil:
		return f32Bytes(s.Tensor.F32)
	case s.Tensor != nil && s.Tensor.U8 != nil:
		return append([]byte(nil), s.Tensor.U8...)
	case s.Image != nil:
		return append([]byte(nil), s.Image.Pix...)
	case s.Volume != nil:
		return f32Bytes(s.Volume.Vox)
	}
	return nil
}

// f32Bytes encodes float32s exactly (bit pattern), so comparisons are true
// byte identity rather than a lossy projection.
func f32Bytes(fs []float32) []byte {
	out := make([]byte, 0, len(fs)*4)
	for _, f := range fs {
		u := math.Float32bits(f)
		out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return out
}

// TestSplitApplyByteIdenticalToUnsplit is the split refactor's core property:
// for every workload spec, running the chain as prefix followed by suffix must
// be indistinguishable from running it unsplit — identical sample metadata and
// virtual time in simulated mode, identical payload bytes in real mode.
func TestSplitApplyByteIdenticalToUnsplit(t *testing.T) {
	for _, kind := range []Kind{IC, ICA, IS, OD} {
		for _, epoch := range []int{0, 2} {
			spec := specFor(kind, 16, 7)

			whole, tWhole := applySplit(spec, pipeline.Simulated, false, epoch)
			parts, tParts := applySplit(spec, pipeline.Simulated, true, epoch)
			if whole.Width != parts.Width || whole.Height != parts.Height ||
				whole.Depth != parts.Depth || whole.Channels != parts.Channels ||
				whole.Dtype != parts.Dtype || whole.RawBytes() != parts.RawBytes() {
				t.Errorf("%s epoch %d sim: split metadata diverges: %+v vs %+v", kind, epoch, whole, parts)
			}
			if tWhole != tParts {
				t.Errorf("%s epoch %d sim: split run consumed %dns, unsplit %dns", kind, epoch, tParts, tWhole)
			}

			wholeR, _ := applySplit(spec, pipeline.RealData, false, epoch)
			partsR, _ := applySplit(spec, pipeline.RealData, true, epoch)
			a, b := payloadBytes(wholeR), payloadBytes(partsR)
			if len(a) == 0 {
				t.Errorf("%s epoch %d real: no payload produced", kind, epoch)
				continue
			}
			if len(a) != len(b) {
				t.Errorf("%s epoch %d real: payload sizes diverge: %d vs %d", kind, epoch, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s epoch %d real: split payload diverges at byte %d", kind, epoch, i)
					break
				}
			}
		}
	}
}

// TestCachedLoaderByteIdenticalAllWorkloads runs every workload's DataLoader
// in real mode with and without a shared sample cache across two epochs: the
// collated batches must be byte-identical, proving cached prefixes never leak
// stale or aliased pixels into any pipeline shape (image and volume alike).
func TestCachedLoaderByteIdenticalAllWorkloads(t *testing.T) {
	for _, kind := range []Kind{IC, ICA, IS, OD} {
		spec := specFor(kind, 8, 7)
		spec.BatchSize = 2
		if kind == IS {
			// Real-mode IS volumes crop to per-volume clamped patches, so
			// cross-sample collation would mismatch; batch of one keeps the
			// loader (and the cache's volume path) exercised regardless.
			spec.BatchSize = 1
		}
		spec.NumWorkers = 2
		cache := pipeline.NewSampleCache(256<<20, false, nil) // sim clock: non-blocking
		fp := uint64(0xF00D) + uint64(len(kind))

		run := func(epoch int, cached bool) map[int][]byte {
			cfg := pipeline.Config{
				BatchSize: spec.BatchSize, NumWorkers: spec.NumWorkers,
				Shuffle: spec.Shuffle, Seed: spec.Seed, Epoch: epoch,
				Mode: pipeline.RealData, MaterializeDim: 32,
			}
			if cached {
				cfg.SampleCache = cache
				cfg.PrefixFP = fp
			}
			out := make(map[int][]byte)
			sim := clock.NewSim()
			sim.Run("main", func(p clock.Proc) {
				dl := pipeline.NewDataLoader(sim, spec.Dataset(nil), cfg)
				it := dl.Start(p)
				for {
					b, ok := it.Next(p)
					if !ok {
						if err := it.Err(); err != nil {
							t.Errorf("%s epoch %d cached=%v: %v", kind, epoch, cached, err)
						}
						return
					}
					payload := b.Data.U8
					if b.Data.F32 != nil {
						payload = f32Bytes(b.Data.F32)
					}
					if len(payload) == 0 {
						t.Errorf("%s epoch %d batch %d: real-mode batch carries no payload", kind, epoch, b.ID)
					}
					out[b.ID] = append([]byte(nil), payload...)
				}
			})
			return out
		}

		for _, epoch := range []int{0, 1} {
			want := run(epoch, false)
			got := run(epoch, true)
			if len(want) != len(got) || len(want) == 0 {
				t.Fatalf("%s epoch %d: batch counts diverge: %d vs %d", kind, epoch, len(want), len(got))
			}
			for id, w := range want {
				g := got[id]
				if len(g) != len(w) {
					t.Fatalf("%s epoch %d batch %d: payload lengths diverge", kind, epoch, id)
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s epoch %d batch %d: cached output diverges at element %d", kind, epoch, id, i)
					}
				}
			}
		}
		st := cache.Stats()
		if st.Misses == 0 {
			t.Errorf("%s: cache never exercised (misses 0): %+v", kind, st)
		}
		if st.Hits == 0 {
			t.Errorf("%s: second epoch never hit the cache: %+v", kind, st)
		}
	}
}
