package pipeline

import (
	"fmt"
	"slices"
	"strings"

	"lotus/internal/imaging"
	"lotus/internal/tensor"
)

// Plan rewrites. A rewrite runs some ops of a Compose in a form that yields
// the same bytes for less work. Which rewrites are in force is a property of
// the plan — the op list, the mode, where a sample cache splits it, whether
// the caller collates — decided once per Compose and mode, never per sample
// and never by a knob (tf.data's static optimizations). A rewritten op keeps
// its name, its place and its one trace record per sample; only the time
// inside the records moves. Names, Kernels, GroundTruth, SplitPoint,
// ApplyPrefix and ApplySuffix see the plan as written.
//
// crop→decode: a Loader immediately followed by a RandomResizedCrop decodes
// only the rectangle the crop will keep, and the crop, handed exactly its
// rectangle, only resizes. The rectangle is drawn from ctx.OpRNG(index,
// "rrc") — a pure function of (seed, epoch, index) — and the file's
// dimensions, so drawing it before the decode yields the rectangle the crop
// would have drawn after it, and imaging.DecodeSJPGRegion is
// Crop(DecodeSJPG) byte for byte. It is off when the sample cache holds the
// Loader's output: the cached prefix is the full decode, shared by every
// epoch's different rectangle.
//
// tensor tail→collate (tf.data's map_and_batch): a plan that ends in
// ToTensor, Normalize leaves the uint8 image on the sample, and the Collate
// that batches the samples makes the one pass from those pixels to the
// batch tensor (finishTails). Both ops map each byte of a channel to one
// float32, so their composition is a 3×256 table, and the table is made by
// running the two ops as written over the 256 byte values: whatever they
// compute, the fused pass stores. A sample with its tail deferred is not a
// finished sample — it has no Tensor — so the rewrite is in force only for a
// caller that is certain to collate what it gets, which is a BatchWorker
// (Ctx.collates) and nobody else, and only when both ops lie outside the
// sample cache's prefix, whose snapshots hold what the plan as written
// produces. A caller that carries the batch somewhere else before using it
// (a serving plane, whose CollateDst takes the offer) may stop one pass short
// and ship the pixels: the table is the last pass, and TailTable hands it out
// for whoever runs it on the far side.

// The plans of a Compose, indexed by the rewrites in force.
const (
	planCrop = 1 << iota
	planTail
	numPlans = 1 << iota
)

// cropOff says why the crop→decode rewrite is not in force for a plan whose
// first split ops are served by a sample cache; "" when it is.
func (c *Compose) cropOff(mode Mode, split int) string {
	switch {
	case c.cropAt < 0:
		return "no crop follows the decode"
	case mode != RealData:
		return "nothing is decoded in simulated mode"
	case split > c.cropAt:
		return "sample cache holds the full decode"
	}
	return ""
}

// tailOff is cropOff for the tensor tail→collate rewrite; collates tells
// whether the caller batches the samples it is given.
func (c *Compose) tailOff(mode Mode, split int, collates bool) string {
	switch {
	case c.tailAt < 0:
		return "the plan does not end in ToTensor, Normalize"
	case mode != RealData:
		return "nothing is converted in simulated mode"
	case split > c.tailAt:
		return "sample cache holds the tensor"
	case !collates:
		return "the caller does not collate"
	}
	return ""
}

// plan returns the ops Apply runs in mode when a sample cache serves the
// plan's first split ops (0: none) and the caller does or does not collate.
func (c *Compose) plan(mode Mode, split int, collates bool) []Transform {
	c.plansOnce.Do(c.buildPlans)
	which := 0
	if c.cropOff(mode, split) == "" {
		which |= planCrop
	}
	if c.tailOff(mode, split, collates) == "" {
		which |= planTail
	}
	return c.plans[which]
}

// Rewrites names the plan rewrites in force when a BatchWorker — a DataLoader
// worker, a serving plane slot — runs the plan in mode, with or without a
// sample cache, and says why the others are not: "crop→decode, tensor
// tail→collate", "tensor tail→collate (no crop follows the decode)", "none
// (...; ...)". Any other caller of Apply gets crop→decode alone.
func (c *Compose) Rewrites(mode Mode, sampleCache bool) string {
	c.plansOnce.Do(c.buildPlans)
	split := 0
	if sampleCache {
		split = c.SplitPoint()
	}
	var on, off []string
	for _, r := range []struct{ name, off string }{
		{"crop→decode", c.cropOff(mode, split)},
		{"tensor tail→collate", c.tailOff(mode, split, true)},
	} {
		if r.off == "" {
			on = append(on, r.name)
		} else {
			off = append(off, r.off)
		}
	}
	s := "none"
	if len(on) > 0 {
		s = strings.Join(on, ", ")
	}
	if len(off) > 0 {
		s += " (" + strings.Join(off, "; ") + ")"
	}
	return s
}

func (c *Compose) buildPlans() {
	ts := c.Transforms
	c.cropAt, c.tailAt = -1, -1
	var crop, tail [2]Transform
	for i := 0; i+1 < len(ts); i++ {
		if l, ok := ts[i].(*Loader); ok {
			if rrc, ok := ts[i+1].(*RandomResizedCrop); ok {
				c.cropAt, crop = i, [2]Transform{windowLoader{l, rrc}, croppedResize{rrc}}
				break
			}
		}
	}
	if n := len(ts); n >= 2 {
		tt, _ := ts[n-2].(*ToTensor)
		norm, _ := ts[n-1].(*Normalize)
		// A Normalize that does not fit an RGB image panics per sample; it
		// keeps doing so.
		if tt != nil && norm != nil && len(norm.Mean) == 3 && len(norm.Std) == 3 {
			t := newTensorTail(tt, norm)
			c.tailAt, tail = n-2, [2]Transform{deferredToTensor{tt}, deferredNormalize{norm, t}}
		}
	}
	for which := range c.plans {
		ops := ts
		if which != 0 {
			ops = slices.Clone(ts)
		}
		if which&planCrop != 0 && c.cropAt >= 0 {
			copy(ops[c.cropAt:], crop[:])
		}
		if which&planTail != 0 && c.tailAt >= 0 {
			copy(ops[c.tailAt:], tail[:])
		}
		c.plans[which] = ops
	}
}

// windowLoader is a Loader that decodes the rectangle crop keeps.
type windowLoader struct {
	*Loader
	crop *RandomResizedCrop
}

func (l windowLoader) Apply(ctx *Ctx, s Sample) Sample { return l.load(ctx, s, l.crop) }

// croppedResize is a RandomResizedCrop whose input is already its rectangle:
// what is left of the op is its Resize.
type croppedResize struct{ *RandomResizedCrop }

func (t croppedResize) Apply(ctx *Ctx, s Sample) Sample {
	return (&Resize{W: t.Size, H: t.Size}).Apply(ctx, s)
}

// tensorTail is a plan's trailing ToTensor, Normalize in the two forms the
// collate can run them: the ops, and lut, what they make of every byte
// value of every channel.
type tensorTail struct {
	toTensor *ToTensor
	norm     *Normalize
	lut      [3][256]float32
}

// newTensorTail builds the table by running the ops' own kernels over a
// 256-pixel image whose pixel v is (v, v, v).
func newTensorTail(tt *ToTensor, norm *Normalize) *tensorTail {
	ramp := imaging.NewImage(256, 1)
	for v := 0; v < 256; v++ {
		ramp.Set(v, 0, uint8(v), uint8(v), uint8(v))
	}
	table := ramp.ToFloat32Tensor().Normalize(norm.Mean, norm.Std).F32
	t := &tensorTail{toTensor: tt, norm: norm}
	for c := range t.lut {
		copy(t.lut[c][:], table[c*256:])
	}
	return t
}

// deferredToTensor is a ToTensor that leaves the conversion to the collate:
// the sample keeps its image and is from here on described as the float32
// tensor it will be.
type deferredToTensor struct{ *ToTensor }

func (deferredToTensor) Apply(_ *Ctx, s Sample) Sample {
	s.Dtype = tensor.Float32
	return s
}

// deferredNormalize is a Normalize that hands the collate the tail to finish.
type deferredNormalize struct {
	*Normalize
	tail *tensorTail
}

func (t deferredNormalize) Apply(_ *Ctx, s Sample) Sample {
	s.tail = t.tail
	return s
}

// TailTable returns the 3×256 table the tensor tail→collate rewrite finishes
// a batch with when a BatchWorker runs the plan in mode, with or without a
// sample cache: lut[c][v] is what ToTensor, Normalize make of byte v of
// channel c. It is nil when the rewrite is not in force. A caller whose
// CollateDst takes the batch one pass short (finishTails) finishes it with
// this table; the table is the Compose's and must not be written to.
func (c *Compose) TailTable(mode Mode, sampleCache bool) *[3][256]float32 {
	c.plansOnce.Do(c.buildPlans)
	split := 0
	if sampleCache {
		split = c.SplitPoint()
	}
	if c.tailOff(mode, split, true) != "" {
		return nil
	}
	return &c.plans[planTail][c.tailAt+1].(deferredNormalize).tail.lut
}

// finishTails is the collate's half of tensor tail→collate. When every
// sample carries the same deferred tail over images of one size, it first
// offers dst the batch one pass short — a uint8 [N, H, W, 3] tensor, each
// sample's interleaved pixels as they are — and, when dst takes it, copies
// the pixels there and leaves the last pass to whoever holds TailTable (a
// serving client, on the far side of the wire). Otherwise it makes the float32
// batch tensor — dst's, or a fresh one — in one pass per sample from the
// pixels. Either way it releases the images. When the samples do not share
// a tail and a size it returns nil, having finished whatever tails there are
// the way the plan wrote them, so that the caller's tensor.StackInto sees the
// tensors — and reports the mismatched shapes — it always has.
func finishTails(ctx *Ctx, samples []Sample, dst CollateDst) *tensor.Tensor {
	tail, im := samples[0].tail, samples[0].Image
	fused := tail != nil
	for _, s := range samples[1:] {
		fused = fused && s.tail == tail && s.Image.W == im.W && s.Image.H == im.H
	}
	if !fused {
		for i, s := range samples {
			if t := s.tail; t != nil {
				s.tail = nil
				samples[i] = t.norm.Apply(ctx, t.toTensor.Apply(ctx, s))
			}
		}
		return nil
	}
	n := 3 * im.H * im.W
	var out *tensor.Tensor
	if dst != nil {
		out = dst(tensor.Uint8, []int{len(samples), im.H, im.W, 3})
	}
	if out != nil {
		if out.Dtype != tensor.Uint8 || len(out.U8) != len(samples)*n {
			panic(fmt.Sprintf("pipeline: collate destination %v does not fit %d %dx%d pixel images", out, len(samples), im.W, im.H))
		}
		for i, s := range samples {
			copy(out.U8[i*n:(i+1)*n], s.Image.Pix)
		}
	} else {
		out = tensor.NewStacked(dst, tensor.Float32, []int{len(samples), 3, im.H, im.W})
		for i, s := range samples {
			s.Image.MapInto(out.F32[i*n:(i+1)*n], &tail.lut)
		}
	}
	for i, s := range samples {
		s.Image.Release()
		samples[i].Image, samples[i].tail = nil, nil
	}
	return out
}
