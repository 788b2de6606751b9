package pipeline

// Plan rewrites. A rewrite runs some ops of a Compose in a form that yields
// the same bytes for less work. Which rewrites are in force is a property of
// the plan — the op list, the mode, whether a sample cache splits it —
// decided once per Compose and mode, never per sample and never by a knob
// (tf.data's static optimizations). A rewritten op keeps its name, its place
// and its one trace record per sample; only the time inside the records
// moves. Names, Kernels, GroundTruth, SplitPoint, ApplyPrefix and ApplySuffix
// see the plan as written.
//
// There is one rewrite, crop→decode: a Loader immediately followed by a
// RandomResizedCrop decodes only the rectangle the crop will keep, and the
// crop, handed exactly its rectangle, only resizes. The rectangle is drawn
// from ctx.OpRNG(index, "rrc") — a pure function of (seed, epoch, index) —
// and the file's dimensions, so drawing it before the decode yields the
// rectangle the crop would have drawn after it, and
// imaging.DecodeSJPGRegion is Crop(DecodeSJPG) byte for byte. It is off when
// the sample cache holds the Loader's output: the cached prefix is the full
// decode, shared by every epoch's different rectangle.

// plan returns the ops Apply runs in mode — cached telling whether a sample
// cache serves the plan's prefix — and names the rewrites in force, or why
// there are none.
func (c *Compose) plan(mode Mode, cached bool) (ops []Transform, rewrites string) {
	c.pushdownOnce.Do(c.buildPushdown)
	switch {
	case c.pushdown == nil:
		return c.Transforms, "none (no crop follows the decode)"
	case mode != RealData:
		return c.Transforms, "none (nothing is decoded in simulated mode)"
	case cached:
		return c.Transforms, "none (sample cache holds the full decode)"
	}
	return c.pushdown, "crop→decode"
}

// Rewrites names the plan rewrites Apply puts in force in mode, with or
// without a sample cache — or says why there are none.
func (c *Compose) Rewrites(mode Mode, sampleCache bool) string {
	_, rewrites := c.plan(mode, sampleCache && c.SplitPoint() > 0)
	return rewrites
}

func (c *Compose) buildPushdown() {
	for i := 0; i+1 < len(c.Transforms); i++ {
		l, ok := c.Transforms[i].(*Loader)
		if !ok {
			continue
		}
		crop, ok := c.Transforms[i+1].(*RandomResizedCrop)
		if !ok {
			continue
		}
		c.pushdown = append([]Transform(nil), c.Transforms...)
		c.pushdown[i] = windowLoader{l, crop}
		c.pushdown[i+1] = croppedResize{crop}
		return
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
