package pipeline

import (
	"lotus/internal/data"
	"lotus/internal/imaging"
	"lotus/internal/native"
	"lotus/internal/tensor"
)

// VolumeLoader loads a kits19-like .npy volume from storage — the IS
// pipeline's "Load" step.
type VolumeLoader struct {
	IO data.IOModel
}

func (l *VolumeLoader) Name() string { return "Loader" }

func (l *VolumeLoader) Deterministic() bool { return true }

func (l *VolumeLoader) Kernels() []string {
	return []string{"npy_parse", "memcpy", "memset"}
}

func (l *VolumeLoader) Apply(ctx *Ctx, s Sample) Sample {
	r := ctx.OpRNG(s.Index, "vload")
	ctx.ReadBlob(s.Index, l.IO.ReadDelay(s.FileBytes, r))
	raw := s.Depth * s.Height * s.Width * 4
	if ctx.Real() {
		cap := ctx.MaterializeDim
		if cap <= 0 {
			cap = 48
		}
		d, h, w := s.Depth, s.Height, s.Width
		for (d > cap || h > cap || w > cap) && d > 8 && h > 8 && w > 8 {
			d, h, w = d/2, h/2, w/2
		}
		s.Volume = imaging.SynthesizeVolume(d, h, w, s.Seed)
		s.Depth, s.Height, s.Width = d, h, w
	} else {
		ctx.WorkCalls(append(ctx.Calls(),
			native.Call{Kernel: "npy_parse", Bytes: raw},
			native.Call{Kernel: "memcpy", Bytes: raw},
			native.Call{Kernel: "memset", Bytes: raw},
		))
	}
	s.Channels, s.Dtype = 1, tensor.Float32
	return s
}

// RandBalancedCrop implements the IS pipeline's foreground-aware crop: with
// probability OversampleP it searches for a patch containing foreground
// (scanning the volume and retrying up to MaxAttempts), otherwise it crops a
// uniformly random patch. The scan-and-retry loop is what gives the op its
// heavy-tailed latency in Table II (avg 91 ms, P90 299 ms).
type RandBalancedCrop struct {
	// Patch is the output size [D, H, W].
	Patch [3]int
	// OversampleP is the probability of a foreground-constrained crop.
	OversampleP float64
	// MaxAttempts bounds the rejection-sampling loop.
	MaxAttempts int
}

func (t *RandBalancedCrop) Name() string { return "RandBalancedCrop" }

func (t *RandBalancedCrop) Deterministic() bool { return false }

func (t *RandBalancedCrop) Kernels() []string {
	return []string{"argwhere_f32", "crop_copy_3d", "memcpy"}
}

func (t *RandBalancedCrop) Apply(ctx *Ctx, s Sample) Sample {
	r := ctx.OpRNG(s.Index, "rbc")
	attempts := t.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	raw := s.Depth * s.Height * s.Width * 4
	outBytes := t.Patch[0] * t.Patch[1] * t.Patch[2] * 4

	foreground := r.Bool(t.OversampleP)
	tries := 1
	if foreground {
		// Each failed attempt rescans the volume; the number of attempts is
		// geometric-ish in how hidden the foreground is. This retry loop is
		// the source of RandBalancedCrop's heavy tail (Table II: P90 ~3.3x
		// the mean).
		for tries < attempts && r.Bool(0.6) {
			tries++
		}
	}

	if ctx.Real() {
		d, h, w := minI(t.Patch[0], s.Depth), minI(t.Patch[1], s.Height), minI(t.Patch[2], s.Width)
		z0, y0, x0 := 0, 0, 0
		if foreground {
			if cz, cy, cx, ok := s.Volume.ForegroundCenter(100); ok {
				z0 = clampI(cz-d/2, 0, s.Depth-d)
				y0 = clampI(cy-h/2, 0, s.Height-h)
				x0 = clampI(cx-w/2, 0, s.Width-w)
			}
		} else {
			z0 = r.Intn(s.Depth - d + 1)
			y0 = r.Intn(s.Height - h + 1)
			x0 = r.Intn(s.Width - w + 1)
		}
		old := s.Volume
		s.Volume = imaging.CropVolume(old, z0, y0, x0, d, h, w)
		old.Release()
		s.Depth, s.Height, s.Width = d, h, w
	} else {
		calls := ctx.Calls()
		if foreground {
			for i := 0; i < tries; i++ {
				calls = append(calls, native.Call{Kernel: "argwhere_f32", Bytes: raw})
			}
		}
		calls = append(calls,
			native.Call{Kernel: "crop_copy_3d", Bytes: outBytes},
			native.Call{Kernel: "memcpy", Bytes: outBytes},
		)
		ctx.WorkCalls(calls)
		s.Depth, s.Height, s.Width = t.Patch[0], t.Patch[1], t.Patch[2]
	}
	return s
}

// RandomFlip reverses the volume along a random axis with probability P per
// axis (the IS pipeline's RandomFlip).
type RandomFlip struct {
	P float64
}

func (t *RandomFlip) Name() string { return "RandomFlip" }

func (t *RandomFlip) Deterministic() bool { return false }

func (t *RandomFlip) Kernels() []string { return []string{"flip_3d"} }

func (t *RandomFlip) Apply(ctx *Ctx, s Sample) Sample {
	p := t.P
	if p == 0 {
		p = 1.0 / 3
	}
	r := ctx.OpRNG(s.Index, "rf")
	raw := s.Depth * s.Height * s.Width * 4
	for axis := 0; axis < 3; axis++ {
		if !r.Bool(p) {
			continue
		}
		if ctx.Real() {
			imaging.FlipVolumeAxis(s.Volume, axis)
		} else {
			ctx.WorkCalls(append(ctx.Calls(), native.Call{Kernel: "flip_3d", Bytes: raw}))
		}
	}
	return s
}

// Cast converts the volume from float32 to uint8 (the IS pipeline's Cast).
type Cast struct{}

func (t *Cast) Name() string { return "Cast" }

func (t *Cast) Deterministic() bool { return true }

func (t *Cast) Kernels() []string { return []string{"cast_f32_u8"} }

func (t *Cast) Apply(ctx *Ctx, s Sample) Sample {
	if ctx.Real() {
		vol := s.Volume
		// ToUint8 copies into a fresh tensor, so the pooled voxel buffer can
		// be retired immediately.
		s.Tensor = tensor.FromF32(vol.Vox, vol.D, vol.H, vol.W).ToUint8()
		vol.Release()
		s.Volume = nil
	} else {
		ctx.WorkCalls(append(ctx.Calls(), native.Call{Kernel: "cast_f32_u8", Bytes: s.RawBytes()}))
	}
	s.Dtype = tensor.Uint8
	return s
}

// RandomBrightnessAugmentation scales intensity with probability P — another
// branchy op whose kernels only sometimes run (§ IV-B's inconsistency case).
type RandomBrightnessAugmentation struct {
	P     float64
	Range [2]float64
}

func (t *RandomBrightnessAugmentation) Name() string { return "RandomBrightnessAugmentation" }

func (t *RandomBrightnessAugmentation) Deterministic() bool { return false }

func (t *RandomBrightnessAugmentation) Kernels() []string { return []string{"scale_f32"} }

func (t *RandomBrightnessAugmentation) Apply(ctx *Ctx, s Sample) Sample {
	p := t.P
	if p == 0 {
		p = 0.1
	}
	r := ctx.OpRNG(s.Index, "rba")
	if !r.Bool(p) {
		return s
	}
	lo, hi := t.Range[0], t.Range[1]
	if lo == 0 && hi == 0 {
		lo, hi = 0.7, 1.3
	}
	factor := r.Uniform(lo, hi)
	if ctx.Real() {
		if s.Volume != nil {
			imaging.ScaleVolume(s.Volume, float32(factor))
		}
	} else {
		// Scaling runs in float regardless of the stored dtype (numpy
		// upcasts), so cost follows element count at 4 bytes each.
		ctx.WorkCalls(append(ctx.Calls(), native.Call{Kernel: "scale_f32", Bytes: s.elems() * 4}))
	}
	return s
}

// GaussianNoise adds zero-mean noise with probability P.
type GaussianNoise struct {
	P      float64
	StdDev float64
}

func (t *GaussianNoise) Name() string { return "GaussianNoise" }

func (t *GaussianNoise) Deterministic() bool { return false }

func (t *GaussianNoise) Kernels() []string { return []string{"gaussian_noise_f32", "box_muller"} }

func (t *GaussianNoise) Apply(ctx *Ctx, s Sample) Sample {
	p := t.P
	if p == 0 {
		p = 0.1
	}
	r := ctx.OpRNG(s.Index, "gn")
	if !r.Bool(p) {
		return s
	}
	sd := t.StdDev
	if sd == 0 {
		sd = 2
	}
	if ctx.Real() {
		if s.Volume != nil {
			imaging.AddGaussianNoise(s.Volume, sd, r)
		}
	} else {
		// One normal draw per element, independent of the stored dtype.
		f32 := s.elems() * 4
		ctx.WorkCalls(append(ctx.Calls(),
			native.Call{Kernel: "gaussian_noise_f32", Bytes: f32},
			native.Call{Kernel: "box_muller", Bytes: f32 / 2},
		))
	}
	return s
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
