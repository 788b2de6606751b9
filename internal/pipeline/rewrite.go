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
// inside the records moves. Names, Kernels, SplitPoint, ApplyPrefix and
// ApplySuffix see the plan as written.

// A rewrite is one entry of the rewrites table: its name, a find over the
// plan as written, and why it can be off — the plan has none of its ops, the
// mode is Simulated, one of its ops lies in the sample cache's prefix, the
// caller does not collate ("" for a rewrite any caller may run). The ops two
// entries find never overlap, so any subset of the table can be in force.
type rewrite struct {
	name string
	find func(ts []Transform) match

	noMatch, simulated, cached, uncollated string
}

// match is where the ops a rewrite replaces start in the plan and what runs
// in their place (nil: the plan has none). table, when set, is the 3×256
// table the rewrite leaves the plan's last pass to (TailTable).
type match struct {
	at    int
	ops   []Transform
	table *[3][256]float32
}

var rewrites = [...]rewrite{{
	// A Loader immediately followed by a RandomResizedCrop decodes only the
	// rectangle the crop keeps, and the crop only resizes. The rectangle is
	// drawn from ctx.OpRNG(index, "rrc") — a pure function of (seed, epoch,
	// index) — and the file's dimensions, so the Loader draws the rectangle
	// the crop would have, and imaging.DecodeSJPGRegion is Crop(DecodeSJPG)
	// byte for byte. A cached prefix is the full decode, shared by every
	// epoch's different rectangle.
	name: "crop→decode",
	find: func(ts []Transform) match {
		for i := 0; i+1 < len(ts); i++ {
			l, _ := ts[i].(*Loader)
			rrc, _ := ts[i+1].(*RandomResizedCrop)
			if l != nil && rrc != nil {
				return match{at: i, ops: []Transform{windowLoader{l, rrc}, croppedResize{rrc}}}
			}
		}
		return match{}
	},
	noMatch:   "no crop follows the decode",
	simulated: "nothing is decoded in simulated mode",
	cached:    "sample cache holds the full decode",
}, {
	// tf.data's map_and_batch: a plan that ends in ToTensor, Normalize leaves
	// the uint8 image on the sample, and the Collate makes the one pass from
	// those pixels to the batch tensor (finishTails) through a 3×256 table
	// made by running the two ops over the 256 byte values. A sample with its
	// tail deferred has no Tensor, so only a caller certain to collate it —
	// a BatchWorker (Ctx.collates) — may get one, and a cached prefix holds
	// what the plan as written produces. A caller whose CollateDst takes the
	// batch one pass short ships the pixels, and whoever holds TailTable
	// runs the last pass on the far side.
	name: "tensor tail→collate",
	find: func(ts []Transform) match {
		n := len(ts)
		if n < 2 {
			return match{}
		}
		tt, _ := ts[n-2].(*ToTensor)
		norm, _ := ts[n-1].(*Normalize)
		// A Normalize that does not fit an RGB image panics per sample; it
		// keeps doing so.
		if tt == nil || norm == nil || len(norm.Mean) != 3 || len(norm.Std) != 3 {
			return match{}
		}
		t := newTensorTail(tt, norm)
		return match{at: n - 2, ops: []Transform{deferredToTensor{tt}, deferredNormalize{norm, t}}, table: &t.lut}
	},
	noMatch:    "the plan does not end in ToTensor, Normalize",
	simulated:  "nothing is converted in simulated mode",
	cached:     "sample cache holds the tensor",
	uncollated: "the caller does not collate",
}}

// off says why rewrite r is not in force when a sample cache serves the
// plan's first split ops (0: none) and the caller does or does not collate;
// "" when it is.
func (c *Compose) off(r int, mode Mode, split int, collates bool) string {
	rw, m := &rewrites[r], &c.matches[r]
	switch {
	case m.ops == nil:
		return rw.noMatch
	case mode != RealData:
		return rw.simulated
	case split > m.at:
		return rw.cached
	case !collates && rw.uncollated != "":
		return rw.uncollated
	}
	return ""
}

// plan returns the ops Apply runs in mode when a sample cache serves the
// plan's first split ops (0: none) and the caller does or does not collate.
func (c *Compose) plan(mode Mode, split int, collates bool) []Transform {
	c.plansOnce.Do(c.buildPlans)
	set := 0
	for r := range rewrites {
		if c.off(r, mode, split, collates) == "" {
			set |= 1 << r
		}
	}
	return c.plans[set]
}

// Rewrites names the plan rewrites in force when a BatchWorker — a DataLoader
// worker, a serving plane slot — runs the plan in mode, with or without a
// sample cache, and says why the others are not: "crop→decode, tensor
// tail→collate", "tensor tail→collate (no crop follows the decode)", "none
// (...; ...)". Any other caller of Apply gets only the rewrites that do not
// need a collating caller.
func (c *Compose) Rewrites(mode Mode, sampleCache bool) string {
	c.plansOnce.Do(c.buildPlans)
	split := c.cacheSplit(sampleCache)
	var on, off []string
	for r := range rewrites {
		if why := c.off(r, mode, split, true); why == "" {
			on = append(on, rewrites[r].name)
		} else {
			off = append(off, why)
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

// buildPlans runs every rewrite's find over the plan as written and builds
// the op list of every subset of the table: plans[set] is Transforms with
// the ops of each rewrite in set that found any replaced.
func (c *Compose) buildPlans() {
	for r := range rewrites {
		c.matches[r] = rewrites[r].find(c.Transforms)
	}
	for set := range c.plans {
		ops := c.Transforms
		if set != 0 {
			ops = slices.Clone(ops)
		}
		for r, m := range c.matches {
			if set&(1<<r) != 0 {
				copy(ops[m.at:], m.ops)
			}
		}
		c.plans[set] = ops
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
	split := c.cacheSplit(sampleCache)
	for r, m := range c.matches {
		if m.table != nil && c.off(r, mode, split, true) == "" {
			return m.table
		}
	}
	return nil
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
