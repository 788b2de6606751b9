package pipeline

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"lotus/internal/data"
	"lotus/internal/imaging"
	"lotus/internal/native"
	"lotus/internal/tensor"
)

// Transform is one preprocessing operation. Apply may mutate and return the
// sample; Kernels declares the native functions the operation may execute —
// the ground truth LotusMap's reconstruction is validated against (the
// hardware-profiler simulation never sees it).
type Transform interface {
	// Name is the operation name as the framework level sees it, e.g.
	// "RandomResizedCrop".
	Name() string
	// Apply runs the operation.
	Apply(ctx *Ctx, s Sample) Sample
	// Kernels lists the logical native-kernel names the op may invoke.
	Kernels() []string
	// Deterministic reports whether the op's output payload is a pure
	// function of its input sample — no dependence on the run seed, the
	// epoch, or any Ctx RNG stream. Deterministic ops may only use RNG for
	// timing (e.g. modeled I/O jitter), never for bytes. A maximal run of
	// deterministic ops at the head of a Compose forms the cacheable prefix
	// of the split-point sample cache.
	Deterministic() bool
}

// Compose chains transforms, timing each application — the torchvision
// Compose.__call__ instrumentation of Listing 3 ([T3]). Transforms must not
// change once the first sample has been applied.
type Compose struct {
	Transforms []Transform
	// Hooks receives per-op timing records; nil disables instrumentation.
	Hooks *Hooks

	// plans[set] is Transforms under the rewrites in set (rewrite.go), and
	// matches what each rewrite found in Transforms; built on first use.
	plansOnce sync.Once
	plans     [1 << len(rewrites)][]Transform
	matches   [len(rewrites)]match
}

// NewCompose chains the given transforms without instrumentation.
func NewCompose(ts ...Transform) *Compose {
	return &Compose{Transforms: ts}
}

// SplitPoint returns the number of leading transforms that form the
// cacheable deterministic prefix (0 means no usable prefix): the maximal run
// of deterministic ops at the head of the plan. Everything at or after the
// split is the random suffix that re-runs per epoch.
func (c *Compose) SplitPoint() int {
	n := 0
	for _, t := range c.Transforms {
		if !t.Deterministic() {
			break
		}
		n++
	}
	return n
}

// cacheSplit is where a sample cache splits the plan: SplitPoint when there
// is one, 0 when there is none.
func (c *Compose) cacheSplit(sampleCache bool) int {
	if !sampleCache {
		return 0
	}
	return c.SplitPoint()
}

// Apply runs every transform in order. pid and batchID flow into the op log
// records so the analysis can associate operations with batches and worker
// processes. When the Ctx carries a sample cache and the pipeline has a
// deterministic prefix, the prefix is served from (or materialized into)
// the cache and only the random suffix runs inline. Whatever runs inline
// runs under the plan's rewrites (rewrite.go): same ops, same records, same
// bytes.
func (c *Compose) Apply(ctx *Ctx, pid, batchID int, s Sample) Sample {
	split := c.cacheSplit(ctx.SampleCache != nil)
	ops := c.plan(ctx.Mode, split, ctx.collates)
	if split > 0 {
		s = ctx.SampleCache.materialize(ctx, c, pid, batchID, split, s)
	}
	return c.applyOps(ctx, pid, batchID, s, ops[split:])
}

// ApplyPrefix runs only the deterministic prefix (never through the cache,
// never rewritten).
func (c *Compose) ApplyPrefix(ctx *Ctx, pid, batchID int, s Sample) Sample {
	return c.applyOps(ctx, pid, batchID, s, c.Transforms[:c.SplitPoint()])
}

// ApplySuffix runs only the random suffix on a post-prefix sample.
func (c *Compose) ApplySuffix(ctx *Ctx, pid, batchID int, s Sample) Sample {
	return c.applyOps(ctx, pid, batchID, s, c.Transforms[c.SplitPoint():])
}

func (c *Compose) applyOps(ctx *Ctx, pid, batchID int, s Sample, ops []Transform) Sample {
	for _, t := range ops {
		start := ctx.Proc.Now()
		s = t.Apply(ctx, s)
		if c.Hooks != nil && c.Hooks.OnOp != nil {
			c.Hooks.OnOp(pid, batchID, s.Index, t.Name(), start, ctx.Proc.Now().Sub(start))
			if c.Hooks.PerLogCost > 0 {
				ctx.Proc.Sleep(c.Hooks.PerLogCost)
			}
		}
	}
	return s
}

// Names returns the transform names in order.
func (c *Compose) Names() []string {
	out := make([]string, len(c.Transforms))
	for i, t := range c.Transforms {
		out[i] = t.Name()
	}
	return out
}

// GroundTruth maps each transform name to its kernel set — the oracle the
// LotusMap validation tests compare reconstructed mappings against.
func (c *Compose) GroundTruth() map[string][]string {
	out := make(map[string][]string, len(c.Transforms))
	for _, t := range c.Transforms {
		out[t.Name()] = append([]string(nil), t.Kernels()...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Image transforms (IC / OD pipelines)
// ---------------------------------------------------------------------------

// Loader loads an encoded image from storage and decodes it — the paper's
// "Loader" operation (ImageFolder's pil_loader: open + decode + convert to
// RGB). Decode cost follows the libjpeg stage structure.
type Loader struct {
	// IO models the storage the dataset is mounted from.
	IO data.IOModel
	// Cache, when non-nil, models the OS page cache in front of the mount.
	Cache *data.PageCache
	// Data, when non-nil, is the dataset whose samples the op loads; its
	// corpus then holds each file after the first touch (NewImageFolder sets
	// it). A bare Loader renders every file inline — same bytes.
	Data *data.ImageDataset

	// Counters of real decodes and of the reads behind them, in
	// nanoseconds (DecodeStats).
	windowed, full, pxDecoded, pxSkipped atomic.Int64
	readModeled, readWaited              atomic.Int64
}

// DecodeStats counts a Loader's real decodes: how many reconstructed only the
// window the following crop keeps and how many the full frame, and the pixels
// of the images that were and were not reconstructed. ReadModeledMS is the
// modeled latency of their files' reads (IOModel delay plus injected
// stalls) and ReadWaitedMS the part of it the workers waited out: less, by
// what a batch's read-ahead overlapped with decoding (Ctx.ReadBlob).
type DecodeStats struct {
	Windowed      int64   `json:"windowed"`
	Full          int64   `json:"full"`
	PxDecoded     int64   `json:"px_decoded"`
	PxSkipped     int64   `json:"px_skipped"`
	ReadModeledMS float64 `json:"read_modeled_ms"`
	ReadWaitedMS  float64 `json:"read_waited_ms"`
}

// DecodeStats reports the op's decode counters.
func (l *Loader) DecodeStats() DecodeStats {
	return DecodeStats{
		Windowed:      l.windowed.Load(),
		Full:          l.full.Load(),
		PxDecoded:     l.pxDecoded.Load(),
		PxSkipped:     l.pxSkipped.Load(),
		ReadModeledMS: float64(l.readModeled.Load()) / 1e6,
		ReadWaitedMS:  float64(l.readWaited.Load()) / 1e6,
	}
}

func (l *Loader) Name() string { return "Loader" }

// Deterministic: decoded pixels derive from the sample's own record seed;
// the op's RNG stream only jitters modeled I/O latency, never bytes.
func (l *Loader) Deterministic() bool { return true }

func (l *Loader) Kernels() []string {
	return []string{
		"decode_mcu", "jpeg_fill_bit_buffer", "jpeg_idct_islow", "jpeg_idct_16x16",
		"ycc_rgb_convert", "decompress_onepass", "ImagingUnpackRGB",
		"memset", "memcpy", "calloc", "process_data_simple_main", "sep_upsample",
		"pil_copy",
	}
}

func (l *Loader) Apply(ctx *Ctx, s Sample) Sample { return l.load(ctx, s, nil) }

// load is Apply; with crop non-nil (the crop→decode rewrite, real pixels
// only) it decodes just the rectangle crop will keep.
func (l *Loader) load(ctx *Ctx, s Sample, crop *RandomResizedCrop) Sample {
	r := ctx.OpRNG(s.Index, "loader")
	modeled, waited := ctx.ReadBlob(s.Index, l.Cache.Delay(s.Index, s.FileBytes, l.IO, r))

	raw := s.Width * s.Height * 3
	if ctx.Real() {
		l.readModeled.Add(int64(modeled))
		l.readWaited.Add(int64(waited))
		// Decode the sample's real SJPG file. The decoder keeps nothing of
		// the blob, so the worker's scratch buffer is free for the next one.
		rec := data.ImageRecord{Index: s.Index, Width: s.Width, Height: s.Height, Seed: s.Seed}
		blob := l.Data.Blob(rec, ctx.MaterializeDim, ctx.blobScratch)
		if cap(blob) > cap(ctx.blobScratch) {
			ctx.blobScratch = blob[:0]
		}
		im, err := l.decode(ctx, s.Index, blob, crop)
		if err != nil {
			panic(fmt.Sprintf("pipeline: synthesized blob failed to decode: %v", err))
		}
		s.Image = im
		s.Width, s.Height = im.W, im.H
		s.Channels, s.Dtype = 3, tensor.Uint8
		return s
	}

	calls := append(ctx.Calls(),
		native.Call{Kernel: "decode_mcu", Bytes: s.FileBytes},
		native.Call{Kernel: "jpeg_fill_bit_buffer", Bytes: s.FileBytes},
	)
	// A minority of images take the scaled-IDCT path for part of their
	// blocks: the short-lived, inconsistently-captured kernel of § IV-B.
	if s.Seed%4 == 0 {
		calls = append(calls,
			native.Call{Kernel: "jpeg_idct_islow", Bytes: raw * 7 / 8},
			native.Call{Kernel: "jpeg_idct_16x16", Bytes: raw / 8},
		)
	} else {
		calls = append(calls, native.Call{Kernel: "jpeg_idct_islow", Bytes: raw})
	}
	calls = append(calls,
		native.Call{Kernel: "ycc_rgb_convert", Bytes: raw},
		native.Call{Kernel: "decompress_onepass", Bytes: raw},
		native.Call{Kernel: "ImagingUnpackRGB", Bytes: raw},
		native.Call{Kernel: "memset", Bytes: raw},
		native.Call{Kernel: "memcpy", Bytes: raw},
	)
	if ctx.Engine != nil {
		switch ctx.Engine.Arch() {
		case native.Intel:
			calls = append(calls, native.Call{Kernel: "calloc", Bytes: raw})
		case native.AMD:
			calls = append(calls,
				native.Call{Kernel: "process_data_simple_main", Bytes: raw},
				native.Call{Kernel: "sep_upsample", Bytes: raw / 2},
				native.Call{Kernel: "pil_copy", Bytes: raw},
			)
		}
	}
	ctx.WorkCalls(calls)
	s.Channels, s.Dtype = 3, tensor.Uint8
	return s
}

// decode decodes sample index's file and counts it: all of it, or with crop
// non-nil only the rectangle crop keeps. The rectangle depends on the file's
// dimensions alone, never its pixels, so it can be drawn before they exist.
func (l *Loader) decode(ctx *Ctx, index int, blob []byte, crop *RandomResizedCrop) (*imaging.Image, error) {
	w, h, err := imaging.SJPGDims(blob)
	if err != nil {
		return nil, err
	}
	x0, y0, cw, ch := 0, 0, w, h
	if crop != nil {
		x0, y0, cw, ch = crop.window(ctx, index, w, h)
		l.windowed.Add(1)
	} else {
		l.full.Add(1)
	}
	l.pxDecoded.Add(int64(cw * ch))
	l.pxSkipped.Add(int64(w*h - cw*ch))
	return imaging.DecodeSJPGRegion(blob, x0, y0, cw, ch)
}

// RawLoader loads a pre-decoded image from storage — the offline
// preprocessing strategy of the paper's Takeaway 2: MLPerf's IS and OD
// pipelines decode and convert the raw dataset to numpy *before* training so
// the expensive decode never runs online. Storage reads get bigger (raw
// pixels instead of compressed), but the CPU-side decode chain disappears.
type RawLoader struct {
	IO    data.IOModel
	Cache *data.PageCache
}

func (l *RawLoader) Name() string { return "Loader" }

func (l *RawLoader) Deterministic() bool { return true }

func (l *RawLoader) Kernels() []string { return []string{"memcpy", "memset"} }

func (l *RawLoader) Apply(ctx *Ctx, s Sample) Sample {
	raw := s.Width * s.Height * 3
	r := ctx.OpRNG(s.Index, "rawload")
	ctx.ReadBlob(s.Index, l.Cache.Delay(s.Index, raw, l.IO, r))
	if ctx.Real() {
		w, h := data.CappedDims(s.Width, s.Height, ctx.MaterializeDim)
		s.Image = imaging.SynthesizeImage(w, h, s.Seed)
		s.Width, s.Height = w, h
	} else {
		ctx.WorkCalls(append(ctx.Calls(),
			native.Call{Kernel: "memcpy", Bytes: raw},
			native.Call{Kernel: "memset", Bytes: raw},
		))
	}
	s.Channels, s.Dtype = 3, tensor.Uint8
	return s
}

// RandomResizedCrop crops a random area/aspect region and resamples it to
// Size x Size, exactly following torchvision's parameter sampling.
type RandomResizedCrop struct {
	Size int
}

func (t *RandomResizedCrop) Name() string { return "RandomResizedCrop" }

func (t *RandomResizedCrop) Deterministic() bool { return false }

func (t *RandomResizedCrop) Kernels() []string {
	return []string{
		"ImagingCrop", "ImagingResampleHorizontal_8bpc", "ImagingResampleVertical_8bpc",
		"precompute_coeffs", "memmove", "int_free", "memcpy",
	}
}

// window draws the rectangle the op keeps of sample index's w x h input.
// The draw is a pure function of (seed, epoch, index) and the dimensions, so
// whoever asks, whenever, gets the same rectangle.
func (t *RandomResizedCrop) window(ctx *Ctx, index, w, h int) (x0, y0, cw, ch int) {
	return imaging.RandomResizedCropParams(w, h, ctx.OpRNG(index, "rrc"))
}

func (t *RandomResizedCrop) Apply(ctx *Ctx, s Sample) Sample {
	x0, y0, cw, ch := t.window(ctx, s.Index, s.Width, s.Height)
	if ctx.Real() {
		// Exactly-once release discipline: a full-frame region skips the
		// copy and aliases the source, so the alias must not be released a
		// second time — the pooled struct would be re-issued with a fresh
		// Pix and a stale Release would free the new owner's buffer. The
		// params guarantee cw/ch >= 1, so Crop never sees a zero-area rect.
		src := s.Image
		crop := src
		if x0 != 0 || y0 != 0 || cw != src.W || ch != src.H {
			crop = imaging.Crop(src, x0, y0, cw, ch)
		}
		s.Image = imaging.Resize(crop, t.Size, t.Size)
		if crop != src {
			crop.Release()
		}
		src.Release()
	} else {
		cropBytes := cw * ch * 3
		midBytes := t.Size * ch * 3 // after horizontal pass
		outBytes := t.Size * t.Size * 3
		calls := append(ctx.Calls(),
			native.Call{Kernel: "ImagingCrop", Bytes: cropBytes},
			native.Call{Kernel: "ImagingResampleHorizontal_8bpc", Bytes: cropBytes + midBytes},
			native.Call{Kernel: "ImagingResampleVertical_8bpc", Bytes: midBytes + outBytes},
		)
		if ctx.Engine != nil {
			switch ctx.Engine.Arch() {
			case native.Intel:
				calls = append(calls,
					native.Call{Kernel: "memmove", Bytes: outBytes},
					native.Call{Kernel: "int_free", Bytes: 4096},
				)
			case native.AMD:
				calls = append(calls,
					native.Call{Kernel: "precompute_coeffs", Bytes: 2 * (cw + ch)},
					native.Call{Kernel: "memcpy", Bytes: outBytes},
				)
			}
		}
		ctx.WorkCalls(calls)
	}
	s.Width, s.Height = t.Size, t.Size
	return s
}

// Resize resamples to a fixed size without cropping (the OD pipeline's
// variant of RandomResizedCrop).
type Resize struct {
	W, H int
}

func (t *Resize) Name() string { return "Resize" }

func (t *Resize) Deterministic() bool { return true }

func (t *Resize) Kernels() []string {
	return []string{"ImagingResampleHorizontal_8bpc", "ImagingResampleVertical_8bpc", "precompute_coeffs", "memmove", "int_free", "memcpy"}
}

func (t *Resize) Apply(ctx *Ctx, s Sample) Sample {
	if ctx.Real() {
		old := s.Image
		s.Image = imaging.Resize(old, t.W, t.H)
		old.Release()
	} else {
		inBytes := s.Width * s.Height * 3
		midBytes := t.W * s.Height * 3
		outBytes := t.W * t.H * 3
		calls := append(ctx.Calls(),
			native.Call{Kernel: "ImagingResampleHorizontal_8bpc", Bytes: inBytes + midBytes},
			native.Call{Kernel: "ImagingResampleVertical_8bpc", Bytes: midBytes + outBytes},
		)
		if ctx.Engine != nil {
			switch ctx.Engine.Arch() {
			case native.Intel:
				calls = append(calls,
					native.Call{Kernel: "memmove", Bytes: outBytes},
					native.Call{Kernel: "int_free", Bytes: 4096},
				)
			case native.AMD:
				calls = append(calls,
					native.Call{Kernel: "precompute_coeffs", Bytes: 2 * (s.Width + s.Height)},
					native.Call{Kernel: "memcpy", Bytes: outBytes},
				)
			}
		}
		ctx.WorkCalls(calls)
	}
	s.Width, s.Height = t.W, t.H
	return s
}

// RandomHorizontalFlip mirrors the image with probability P (default 0.5).
// It is the paper's canonical sub-100µs operation: when the coin lands
// tails the op does nothing at all.
type RandomHorizontalFlip struct {
	P float64
}

func (t *RandomHorizontalFlip) Name() string { return "RandomHorizontalFlip" }

func (t *RandomHorizontalFlip) Deterministic() bool { return false }

func (t *RandomHorizontalFlip) Kernels() []string {
	return []string{"ImagingFlipLeftRight", "memcpy"}
}

func (t *RandomHorizontalFlip) Apply(ctx *Ctx, s Sample) Sample {
	p := t.P
	if p == 0 {
		p = 0.5
	}
	r := ctx.OpRNG(s.Index, "rhf")
	if !r.Bool(p) {
		return s
	}
	if ctx.Real() {
		// In place: the mirrored image replaces the sample's payload, so
		// there is no reason to materialize a second buffer.
		imaging.FlipHorizontalInPlace(s.Image)
	} else {
		raw := s.Width * s.Height * 3
		ctx.WorkCalls(append(ctx.Calls(),
			native.Call{Kernel: "ImagingFlipLeftRight", Bytes: raw},
			native.Call{Kernel: "memcpy", Bytes: raw},
		))
	}
	return s
}

// RandomCrop extracts a Size x Size window at a uniformly random offset
// (torchvision's RandomCrop without padding). In the augmented ICA pipeline
// it runs right after a deterministic Resize, so the expensive decode+resize
// prefix stays cacheable while the crop re-rolls every epoch.
type RandomCrop struct {
	Size int
}

func (t *RandomCrop) Name() string { return "RandomCrop" }

func (t *RandomCrop) Deterministic() bool { return false }

func (t *RandomCrop) Kernels() []string { return []string{"ImagingCrop", "memcpy"} }

func (t *RandomCrop) Apply(ctx *Ctx, s Sample) Sample {
	r := ctx.OpRNG(s.Index, "rc")
	cw, ch := t.Size, t.Size
	if cw > s.Width {
		cw = s.Width
	}
	if ch > s.Height {
		ch = s.Height
	}
	x0, y0 := 0, 0
	if s.Width > cw {
		x0 = r.Intn(s.Width - cw + 1)
	}
	if s.Height > ch {
		y0 = r.Intn(s.Height - ch + 1)
	}
	if ctx.Real() {
		// A full-frame window is the identity: keep the buffer, no copy.
		if x0 != 0 || y0 != 0 || cw != s.Image.W || ch != s.Image.H {
			old := s.Image
			s.Image = imaging.Crop(old, x0, y0, cw, ch)
			old.Release()
		}
	} else {
		out := cw * ch * 3
		ctx.WorkCalls(append(ctx.Calls(),
			native.Call{Kernel: "ImagingCrop", Bytes: out},
			native.Call{Kernel: "memcpy", Bytes: out},
		))
	}
	s.Width, s.Height = cw, ch
	return s
}

// RandomPixelNoise perturbs every byte by a uniform offset in [-Amp, Amp]
// with probability P per sample (default 0.5, amp 8) — the cheap additive
// photometric augmentation of the ICA pipeline. One op-stream draw seeds a
// splitmix-style LCG for the whole pass, so the noise is deterministic per
// (seed, epoch, sample) without per-byte stream overhead.
type RandomPixelNoise struct {
	P   float64
	Amp int
}

func (t *RandomPixelNoise) Name() string { return "RandomPixelNoise" }

func (t *RandomPixelNoise) Deterministic() bool { return false }

func (t *RandomPixelNoise) Kernels() []string { return []string{"pixel_noise_u8"} }

func (t *RandomPixelNoise) Apply(ctx *Ctx, s Sample) Sample {
	p := t.P
	if p == 0 {
		p = 0.5
	}
	r := ctx.OpRNG(s.Index, "rpn")
	if !r.Bool(p) {
		return s
	}
	amp := t.Amp
	if amp <= 0 {
		amp = 8
	}
	if ctx.Real() {
		addPixelNoise(s.Image.Pix, uint64(r.Int63()), amp)
	} else {
		ctx.WorkCalls(append(ctx.Calls(),
			native.Call{Kernel: "pixel_noise_u8", Bytes: s.Width * s.Height * 3}))
	}
	return s
}

// The pixel-noise LCG, and the same generator stepped four times at once.
const (
	noiseMul  = 6364136223846793005
	noiseAdd  = 1442695040888963407
	noiseMul4 = noiseMul * noiseMul * noiseMul * noiseMul % (1 << 64)
	noiseAdd4 = noiseAdd * (noiseMul*noiseMul*noiseMul + noiseMul*noiseMul + noiseMul + 1) % (1 << 64)
)

// addPixelNoise steps the LCG once per byte of pix and moves the byte by
// (state>>33) % (2*amp+1) - amp, saturating at 0 and 255. The remainder is
// Lemire's fastmod — a multiply-high by ceil(2^64/span), exact for a 32-bit
// dividend and divisor — not a 64-bit divide per byte. Four lanes carry the
// states of four consecutive bytes, each stepped four times at once, so no
// byte waits on the multiply before it; the clamp is a table lookup.
func addPixelNoise(pix []uint8, state uint64, amp int) {
	span := uint64(2*amp + 1)
	if span > 512 { // noise past ±255 saturates; a table that size is not worth building
		for i := range pix {
			state = state*noiseMul + noiseAdd
			pix[i] = uint8(min(max(int(pix[i])+int((state>>33)%span)-amp, 0), 255))
		}
		return
	}
	m := ^uint64(0)/span + 1
	var clamp [256 + 512]uint8
	for i := range 256 + int(span) - 1 {
		clamp[i] = uint8(min(max(i-amp, 0), 255))
	}
	mod := func(s uint64) uint64 {
		hi, _ := bits.Mul64(m*(s>>33), span)
		return hi
	}
	s0 := state*noiseMul + noiseAdd
	s1 := s0*noiseMul + noiseAdd
	s2 := s1*noiseMul + noiseAdd
	s3 := s2*noiseMul + noiseAdd
	i := 0
	for ; i+4 <= len(pix); i += 4 {
		p := pix[i : i+4 : i+4]
		p[0] = clamp[uint64(p[0])+mod(s0)]
		p[1] = clamp[uint64(p[1])+mod(s1)]
		p[2] = clamp[uint64(p[2])+mod(s2)]
		p[3] = clamp[uint64(p[3])+mod(s3)]
		s0 = s0*noiseMul4 + noiseAdd4
		s1 = s1*noiseMul4 + noiseAdd4
		s2 = s2*noiseMul4 + noiseAdd4
		s3 = s3*noiseMul4 + noiseAdd4
	}
	rest := [3]uint64{s0, s1, s2}
	for _, s := range rest[:len(pix)-i] {
		pix[i] = clamp[uint64(pix[i])+mod(s)]
		i++
	}
}

// ToTensor converts the PIL-style image to a [3,H,W] float32 tensor scaled
// to [0,1], as torchvision's ToTensor does.
type ToTensor struct{}

func (t *ToTensor) Name() string { return "ToTensor" }

func (t *ToTensor) Deterministic() bool { return true }

func (t *ToTensor) Kernels() []string {
	return []string{"ImagingUnpackRGB", "convert_u8_f32", "memcpy"}
}

func (t *ToTensor) Apply(ctx *Ctx, s Sample) Sample {
	u8Bytes := s.Width * s.Height * 3
	f32Bytes := u8Bytes * 4
	if ctx.Real() {
		// Fused unpack+convert: produces the float32 planar tensor directly
		// (bit-identical to ToTensor().ToFloat32()) and retires the sample's
		// pooled image.
		s.Tensor = s.Image.ToFloat32Tensor()
		s.Image.Release()
		s.Image = nil
	} else {
		ctx.WorkCalls(append(ctx.Calls(),
			native.Call{Kernel: "ImagingUnpackRGB", Bytes: u8Bytes},
			native.Call{Kernel: "convert_u8_f32", Bytes: u8Bytes + f32Bytes/4},
			native.Call{Kernel: "memcpy", Bytes: u8Bytes},
		))
	}
	s.Dtype = tensor.Float32
	return s
}

// Normalize applies per-channel (x-mean)/std to the float tensor.
type Normalize struct {
	Mean, Std []float32
}

func (t *Normalize) Name() string { return "Normalize" }

func (t *Normalize) Deterministic() bool { return true }

func (t *Normalize) Kernels() []string { return []string{"normalize_f32"} }

func (t *Normalize) Apply(ctx *Ctx, s Sample) Sample {
	if ctx.Real() {
		s.Tensor.Normalize(t.Mean, t.Std)
	} else {
		ctx.WorkCalls(append(ctx.Calls(), native.Call{Kernel: "normalize_f32", Bytes: s.RawBytes()}))
	}
	return s
}

// Collate stacks k samples into a batch tensor (DataLoader's default
// collate_fn). It is logged as the C(k) operation of Table II.
type Collate struct{}

func (t *Collate) Name() string { return "Collate" }

func (t *Collate) Kernels() []string { return []string{"cat_serial_kernel", "memcpy"} }

// CollateDst chooses where a real-data collate writes the batch tensor: it
// is asked, with the batch's dtype and shape, for a materialized tensor of
// that geometry (tensor.StackInto's contract). Nil, or a nil result, means
// a freshly allocated tensor. Under the tensor tail→collate rewrite a dst is
// first offered the batch one pass short — uint8 [N, H, W, 3], the samples'
// pixels — which a dst that takes it finishes later with Compose.TailTable;
// a nil answer declines, and the dst is asked for the float32 batch.
type CollateDst func(dtype tensor.DType, shape []int) *tensor.Tensor

// Run collates samples into the batch payload. Collation is a batch-level
// op, so it does not implement Transform.Apply.
func (t *Collate) Run(ctx *Ctx, samples []Sample) *tensor.Tensor {
	return t.RunInto(ctx, samples, nil)
}

// RunInto is Run with the output placed by dst, so a caller that already
// owns the batch's final resting place (a wire frame) has the samples copied
// there once — or, where the plan left its tensor tail to the collate
// (rewrite.go), converted there once. Simulated collation moves no data and
// ignores dst.
func (t *Collate) RunInto(ctx *Ctx, samples []Sample, dst CollateDst) *tensor.Tensor {
	if len(samples) == 0 {
		panic("pipeline: collate of empty batch")
	}
	if ctx.Real() {
		if out := finishTails(ctx, samples, dst); out != nil {
			return out
		}
		ts := make([]*tensor.Tensor, len(samples))
		for i, s := range samples {
			ts[i] = s.Tensor
		}
		return tensor.StackInto(dst, ts)
	}
	total := 0
	for _, s := range samples {
		total += s.RawBytes()
	}
	ctx.WorkCalls(append(ctx.Calls(),
		native.Call{Kernel: "cat_serial_kernel", Bytes: total},
		native.Call{Kernel: "memcpy", Bytes: total},
	))
	first := samples[0]
	shape := []int{len(samples), first.Channels}
	if first.Depth > 0 {
		shape = append(shape, first.Depth)
	}
	shape = append(shape, first.Height, first.Width)
	return tensor.Meta(first.Dtype, shape...)
}

// CollateN adapts Collate to the Transform interface so LotusMap can
// profile collation in isolation: applying it collates N copies of the
// input sample (the batch-level work for a batch of N).
type CollateN struct {
	N int
}

func (c *CollateN) Name() string { return "Collate" }

func (c *CollateN) Deterministic() bool { return true }

func (c *CollateN) Kernels() []string { return (&Collate{}).Kernels() }

func (c *CollateN) Apply(ctx *Ctx, s Sample) Sample {
	n := c.N
	if n <= 0 {
		n = 2
	}
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = s
	}
	(&Collate{}).Run(ctx, samples)
	return s
}

// PinCost models copying a batch into page-locked memory in the main
// process (pin_memory=True), at roughly 5 GB/s.
func PinCost(bytes int) time.Duration {
	return time.Duration(float64(bytes) / 5e9 * float64(time.Second))
}
