package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lotus/internal/clock"
	"lotus/internal/cluster"
	"lotus/internal/data"
	"lotus/internal/imaging"
	"lotus/internal/pipeline"
	"lotus/internal/rng"
	"lotus/internal/serve"
	"lotus/internal/store"
	"lotus/internal/tensor"
	"lotus/internal/workloads"
)

// ladderOpts sizes the traced layer-by-layer run.
type ladderOpts struct {
	Seed   int64  `json:"seed"`
	Smoke  bool   `json:"smoke"`
	OutDir string `json:"out_dir"`
}

// ladderResult carries every per-layer metric that does not depend on which
// workload was traced beside it.
type ladderResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes"`
}

// ladderSizes are the sample counts of the rungs. The rungs are sized so the
// whole ladder takes about as long as one workload run; per-layer metrics
// carry no regression bound, so they trade repetitions for coverage.
type ladderSizes struct {
	kernel    int // samples through the imaging kernels and per-sample Compose
	heavy     int // samples of the OD and IS Compose (tens of ms each)
	loader    int // samples of the local DataLoader epochs
	served    int // samples of the served rungs (cold, hot, disk-warm, cluster)
	reps      int // repetitions of whole-frame operations
	hotReps   int // hot epochs measured
	coldPairs int // served-cold epoch pairs (harness spans off, then on)
}

func (o ladderOpts) sizes() ladderSizes {
	if o.Smoke {
		return ladderSizes{kernel: 32, heavy: 1, loader: 64, served: 64, reps: 2, hotReps: 2, coldPairs: 1}
	}
	return ladderSizes{kernel: 96, heavy: 4, loader: 192, served: 192, reps: 5, hotReps: 3, coldPairs: 2}
}

// ladder is the state the rungs share.
type ladder struct {
	o    ladderOpts
	sz   ladderSizes
	rec  *recorder
	m    map[string]float64
	note []string
	lane int

	spec workloads.Spec     // ic_cold's spec at the kernel-rung size
	rung map[string]float64 // ladder.cpu_ms_per_sample.<rung>

	batch      *pipeline.Batch // one real collated IC batch, from the loader rung
	synthEncMs float64         // synth + encode per sample, from the imaging rung
}

// runLadder executes ic_cold's inputs through successively longer prefixes of
// the stack — kernels, per-sample Compose, a local loader epoch, frame
// encode, frame I/O, then served cold / hot / disk-warm and the cluster
// router — timing each call into a layer from outside, with a span around it.
func runLadder(o ladderOpts) (*ladderResult, error) {
	l := &ladder{o: o, sz: o.sizes(), rec: newRecorder(true), m: map[string]float64{}, rung: map[string]float64{}}
	ic, _ := findWorkload("ic_cold")
	l.spec = ic.spec(l.sz.served, o.Seed)
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"host", l.host},
		{"imaging", l.imaging},
		{"tensor", l.tensor},
		{"pipeline.compose", l.compose},
		{"pipeline.loader", l.loader},
		{"serve.wire", l.wire},
		{"store", l.store},
		{"serve", l.served},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", s.name, err)
		}
	}
	if err := l.rec.writeChrome(filepath.Join(o.OutDir, "ladder-trace.json")); err != nil {
		return nil, err
	}
	return &ladderResult{Metrics: l.m, Notes: l.note}, nil
}

// timed runs fn under a span and returns its wall time.
func (l *ladder) timed(name string, parent int, fn func()) time.Duration {
	id := l.rec.begin(name, l.lane, parent)
	t := time.Now()
	fn()
	d := time.Since(t)
	l.rec.end(id)
	return d
}

// section opens a root span for one rung on its own trace row.
func (l *ladder) section(name string) (id int, done func()) {
	l.lane++
	id = l.rec.begin(name, l.lane, 0)
	return id, func() { l.rec.end(id) }
}

func (l *ladder) host() error {
	_, done := l.section("host")
	defer done()
	l.m["host.memcpy_MBps"] = memcpyMBps(4 * l.sz.reps)
	l.m["host.fnv64a_MBps"] = fnv64aMBps(l.sz.reps)
	lb, err := loopbackMBps(2 * l.sz.reps)
	l.m["host.loopback_MBps"] = lb
	return err
}

// epochZeroIndices are the dataset indices of ic_cold's epoch 0 in plan
// order: the inputs every kernel and Compose rung runs.
func (l *ladder) epochZeroIndices(n int) []int {
	var out []int
	for _, pb := range serve.BuildEpochPlan(l.spec.NumSamples, l.spec.BatchSize, l.spec.Shuffle, false, l.spec.Seed, 0) {
		out = append(out, pb.Indices...)
	}
	return out[:min(n, len(out))]
}

// loaderGeometry applies the Loader's halving rule to a record's size.
func loaderGeometry(w, h int) (int, int) {
	for (w > materializeDim || h > materializeDim) && w > 32 && h > 32 {
		w /= 2
		h /= 2
	}
	return w, h
}

// onRealProc runs fn on a wall-clock proc with a worker-like Ctx for spec.
func onRealProc(spec workloads.Spec, fn func(ctx *pipeline.Ctx)) {
	clock.NewReal().Run("perf-ladder", func(p clock.Proc) {
		fn(&pipeline.Ctx{Proc: p, Mode: pipeline.RealData, Seed: spec.Seed, MaterializeDim: materializeDim})
	})
}

// imaging times the four kernels the IC pipeline spends its time in, on the
// geometries the Loader would materialize for ic_cold's first samples.
func (l *ladder) imaging() error {
	root, done := l.section("imaging")
	defer done()
	folder := l.spec.Dataset(nil).(*pipeline.ImageFolder)
	ds := folder.Data
	var synth, enc, dec, resize time.Duration
	var srcPx, outPx int
	var derr error
	idxs := l.epochZeroIndices(l.sz.kernel)
	// A few untimed samples first: image pools, resample coefficients and
	// the heap are cold in a fresh process, and the workers never are.
	onRealProc(l.spec, func(ctx *pipeline.Ctx) {
		for _, idx := range idxs[:min(8, len(idxs))] {
			folder.GetItem(ctx, 0, 0, idx)
		}
	})
	cpu0 := cpuSeconds()
	onRealProc(l.spec, func(ctx *pipeline.Ctx) {
		for _, idx := range idxs {
			rec := ds.Record(idx)
			w, h := loaderGeometry(rec.Width, rec.Height)
			var src, im *imaging.Image
			var blob []byte
			synth += l.timed("imaging.SynthesizeImage", root, func() { src = imaging.SynthesizeImage(w, h, rec.Seed) })
			enc += l.timed("imaging.EncodeSJPGSubsampled", root, func() { blob = imaging.EncodeSJPGSubsampled(src, 85, imaging.Sub420) })
			src.Release()
			dec += l.timed("imaging.DecodeSJPG", root, func() { im, derr = imaging.DecodeSJPG(blob) })
			if derr != nil {
				return
			}
			x0, y0, cw, ch := imaging.RandomResizedCropParams(im.W, im.H, ctx.OpRNG(idx, "rrc"))
			resize += l.timed("imaging.Crop+Resize", root, func() {
				crop := imaging.Crop(im, x0, y0, cw, ch)
				imaging.Resize(crop, 224, 224).Release()
				crop.Release()
			})
			im.Release()
			srcPx += w * h
			outPx += 224 * 224
		}
	})
	if derr != nil {
		return derr
	}
	n := float64(len(idxs))
	l.rung["imaging"] = (cpuSeconds() - cpu0) * 1e3 / n
	l.m["imaging.synth_ns_per_px"] = float64(synth.Nanoseconds()) / float64(srcPx)
	l.m["imaging.sjpg_encode_ns_per_px"] = float64(enc.Nanoseconds()) / float64(srcPx)
	l.m["imaging.sjpg_decode_ns_per_px"] = float64(dec.Nanoseconds()) / float64(srcPx)
	l.m["imaging.resize_ns_per_px"] = float64(resize.Nanoseconds()) / float64(outPx)
	l.synthEncMs = (synth + enc).Seconds() * 1e3 / n
	return nil
}

func (l *ladder) tensor() error {
	root, done := l.section("tensor")
	defer done()
	ts := make([]*tensor.Tensor, batchSize)
	for i := range ts {
		ts[i] = tensor.Zeros(tensor.Float32, 3, 224, 224)
	}
	mean, std := []float32{0.485, 0.456, 0.406}, []float32{0.229, 0.224, 0.225}
	var norm time.Duration
	for rep := 0; rep < l.sz.reps; rep++ {
		for _, t := range ts {
			norm += l.timed("tensor.Normalize", root, func() { t.Normalize(mean, std) })
		}
	}
	l.m["tensor.normalize_ns_per_elem"] = float64(norm.Nanoseconds()) / float64(l.sz.reps*batchSize*ts[0].Len())
	rates := make([]float64, l.sz.reps)
	for i := range rates {
		var out *tensor.Tensor
		d := l.timed("tensor.Stack", root, func() { out = tensor.Stack(ts) })
		rates[i] = float64(out.Bytes()) / 1e6 / d.Seconds()
	}
	l.m["tensor.stack_MBps"] = median(rates)
	return nil
}

// opTimes collects Hooks.OnOp durations per op name (the paper's T3).
type opTimes struct {
	sum map[string]time.Duration
	n   map[string]int
}

func newOpTimes() *opTimes {
	return &opTimes{sum: map[string]time.Duration{}, n: map[string]int{}}
}

func (o *opTimes) hooks() *pipeline.Hooks {
	return &pipeline.Hooks{OnOp: func(_, _, _ int, op string, _ time.Time, dur time.Duration) {
		o.sum[op] += dur
		o.n[op]++
	}}
}

func (o *opTimes) meanMs(op string) float64 {
	if o.n[op] == 0 {
		return 0
	}
	return o.sum[op].Seconds() * 1e3 / float64(o.n[op])
}

// compose runs Dataset.GetItem on one goroutine for each workload kind, with
// the public op hook on for IC and ICA, then ICA's prefix and suffix apart.
func (l *ladder) compose() error {
	root, done := l.section("pipeline.compose")
	defer done()
	for _, kind := range []workloads.Kind{workloads.IC, workloads.ICA, workloads.OD, workloads.IS} {
		n := l.sz.kernel
		if kind == workloads.OD || kind == workloads.IS {
			n = l.sz.heavy
		}
		spec := l.spec
		spec.Kind = kind
		ops := newOpTimes()
		ds := spec.Dataset(ops.hooks())
		var samples []pipeline.Sample
		var wall time.Duration
		cpu0 := cpuSeconds()
		onRealProc(spec, func(ctx *pipeline.Ctx) {
			for _, idx := range l.epochZeroIndices(n) {
				wall += l.timed("pipeline.Dataset.GetItem/"+string(kind), root, func() {
					samples = append(samples, ds.GetItem(ctx, pipeline.WorkerPID(0), 0, idx))
				})
			}
		})
		cpu := cpuSeconds() - cpu0
		l.m["pipeline.compose_ms_per_sample."+string(kind)] = wall.Seconds() * 1e3 / float64(len(samples))
		if kind != workloads.IC && kind != workloads.ICA {
			continue
		}
		for _, op := range spec.OpOrder() {
			if op != "Collate" {
				l.m[fmt.Sprintf("pipeline.op_ms.%s.%s", kind, op)] = ops.meanMs(op)
			}
		}
		// Collate is a batch-level op: time it on full batches of the
		// samples just produced, as the worker loop does.
		var collate time.Duration
		batches := 0
		cpuC := cpuSeconds()
		onRealProc(spec, func(ctx *pipeline.Ctx) {
			for i := 0; i+batchSize <= len(samples); i += batchSize {
				collate += l.timed("pipeline.Collate.Run/"+string(kind), root, func() {
					(&pipeline.Collate{}).Run(ctx, samples[i:i+batchSize])
				})
				batches++
			}
		})
		if batches > 0 {
			l.m[fmt.Sprintf("pipeline.op_ms.%s.Collate", kind)] = collate.Seconds() * 1e3 / float64(batches)
		}
		if kind == workloads.IC {
			perSample := cpu * 1e3 / float64(len(samples))
			l.rung["pipeline.compose"] = perSample - l.rung["imaging"]
			if batches > 0 {
				l.rung["pipeline.collate"] = (cpuSeconds() - cpuC) * 1e3 / float64(batches*batchSize)
			}
			if loaderMs := ops.meanMs("Loader"); loaderMs > 0 {
				l.m["pipeline.loader_input_synth_frac"] = l.synthEncMs / loaderMs
			}
			l.ioSleep(ds.(*pipeline.ImageFolder).Data, n)
		}
	}

	// ICA's prefix and suffix apart, never through the cache.
	spec := l.spec
	spec.Kind = workloads.ICA
	c := spec.Compose(nil)
	folder := spec.Dataset(nil).(*pipeline.ImageFolder)
	var prefix, suffix time.Duration
	idxs := l.epochZeroIndices(l.sz.kernel)
	onRealProc(spec, func(ctx *pipeline.Ctx) {
		for _, idx := range idxs {
			rec := folder.Data.Record(idx)
			s := pipeline.Sample{Index: idx, Label: rec.Label, FileBytes: rec.FileBytes, Seed: rec.Seed,
				Width: rec.Width, Height: rec.Height, Channels: 3, Dtype: tensor.Uint8}
			prefix += l.timed("pipeline.Compose.ApplyPrefix/ICA", root, func() { s = c.ApplyPrefix(ctx, 0, 0, s) })
			suffix += l.timed("pipeline.Compose.ApplySuffix/ICA", root, func() { s = c.ApplySuffix(ctx, 0, 0, s) })
		}
	})
	l.m["pipeline.prefix_ms_per_sample"] = prefix.Seconds() * 1e3 / float64(len(idxs))
	l.m["pipeline.suffix_ms_per_sample"] = suffix.Seconds() * 1e3 / float64(len(idxs))
	return nil
}

// ioSleep is the modeled storage wait per sample: IOModel.ReadDelay of each
// record's file size with no jitter. It is computed from the model, not
// measured — the Loader sleeps it off-CPU, so it costs throughput only.
func (l *ladder) ioSleep(ds *data.ImageDataset, n int) {
	var total time.Duration
	idxs := l.epochZeroIndices(n)
	for _, idx := range idxs {
		total += data.DefaultIO().ReadDelay(ds.Record(idx).FileBytes, nil)
	}
	l.m["pipeline.io_sleep_ms_per_sample"] = total.Seconds() * 1e3 / float64(len(idxs))
	l.note = append(l.note, "pipeline.io_sleep_ms_per_sample is computed from data.IOModel.ReadDelay, not measured")
}

// localEpoch runs a local DataLoader over the first n samples of epoch 0 and
// returns samples/s; it keeps the first batch for the wire rungs.
func (l *ladder) localEpoch(workers, n, parent int) (float64, error) {
	plan := serve.BuildEpochPlan(l.spec.NumSamples, l.spec.BatchSize, l.spec.Shuffle, false, l.spec.Seed, 0)
	var batchPlan [][]int
	samples := 0
	for _, pb := range plan {
		if samples+len(pb.Indices) > n {
			break
		}
		batchPlan = append(batchPlan, pb.Indices)
		samples += len(pb.Indices)
	}
	cfg := pipeline.Config{BatchSize: batchSize, NumWorkers: workers, PinMemory: l.spec.PinMemory,
		Seed: l.spec.Seed, BatchPlan: batchPlan, Mode: pipeline.RealData, MaterializeDim: materializeDim}
	var err error
	d := l.timed(fmt.Sprintf("pipeline.DataLoader epoch/w%d", workers), parent, func() {
		clk := clock.NewReal()
		clk.Run("perf-loader", func(p clock.Proc) {
			it := pipeline.NewDataLoader(clk, l.spec.Dataset(nil), cfg).Start(p)
			defer it.Drain(p)
			for {
				b, ok := it.Next(p)
				if !ok {
					err = it.Err()
					return
				}
				if l.batch == nil {
					l.batch = b
				}
			}
		})
	})
	return float64(samples) / d.Seconds(), err
}

func (l *ladder) loader() error {
	root, done := l.section("pipeline.loader")
	defer done()
	w1, err := l.localEpoch(1, l.sz.loader, root)
	if err != nil {
		return err
	}
	w2, err := l.localEpoch(2, l.sz.loader, root)
	if err != nil {
		return err
	}
	l.m["pipeline.loader_samples_per_s.w1"] = w1
	l.m["pipeline.loader_samples_per_s.w2"] = w2
	l.m["pipeline.loader_scaling"] = w2 / w1
	return nil
}

// wire times the frame codec and frame I/O on one real IC batch, and charges
// each side of the socket its own thread's CPU.
func (l *ladder) wire() error {
	root, done := l.section("serve.wire")
	defer done()
	b := l.batch
	if b == nil {
		return errors.New("the loader rung produced no batch")
	}
	wb := &serve.Batch{GlobalID: 0, Indices: b.Indices, Labels: b.Labels, Dtype: b.Data.Dtype,
		Shape: b.Data.Shape, U8: b.Data.U8, F32: b.Data.F32}
	reps := l.sz.reps
	samples := float64(reps * len(b.Indices))
	buf := make([]byte, 0, b.Bytes()+4096)
	var payload []byte

	var enc time.Duration
	cpu0 := cpuSeconds()
	for i := 0; i < reps; i++ {
		enc += l.timed("serve.AppendBatch", root, func() { payload = serve.AppendBatch(buf[:0], wb) })
	}
	l.rung["serve.encode"] = (cpuSeconds() - cpu0) * 1e3 / samples
	mbs := float64(reps) * float64(len(payload)) / 1e6
	l.m["serve.encode_MBps"] = mbs / enc.Seconds()

	var dec time.Duration
	var derr error
	cpu0 = cpuSeconds()
	for i := 0; i < reps; i++ {
		dec += l.timed("serve.DecodeMessage", root, func() { _, derr = serve.DecodeMessage(payload) })
	}
	if derr != nil {
		return derr
	}
	decodeCPU := cpuSeconds() - cpu0
	l.m["serve.decode_MBps"] = mbs / dec.Seconds()

	// The checksum passes both ends fold over every payload: FNV-1a on the
	// server and in the client's stream check, CRC32C in this harness.
	cpu0 = cpuSeconds()
	for i := 0; i < reps; i++ {
		l.timed("client.verify (fnv64a+crc32c)", root, func() {
			h := fnv.New64a()
			h.Write(payload)
			crc32.Checksum(payload, castagnoli)
		})
	}
	l.rung["client.verify"] = (cpuSeconds() - cpu0) * 1e3 / samples
	fnvCPU := float64(len(payload)) / 1e6 / l.m["host.fnv64a_MBps"] * 1e3 / float64(len(b.Indices)) // ms per sample

	writeCPU, readCPU, wall, err := l.frameIO(payload, reps, root)
	if err != nil {
		return err
	}
	l.m["serve.frame_io_MBps"] = mbs / wall.Seconds()
	l.rung["serve.write"] = writeCPU*1e3/samples + fnvCPU
	l.rung["client.read_decode"] = (readCPU + decodeCPU) * 1e3 / samples
	l.note = append(l.note, "ladder rung serve.write is WriteFrame's thread CPU plus one FNV-1a pass at host.fnv64a_MBps: the server's stream checksum is not callable from outside")
	return nil
}

// frameIO streams payload reps times through WriteFrame -> ReadFrame over a
// loopback connection, each end locked to its own OS thread so the kernel's
// copy is charged to the side that made the call.
func (l *ladder) frameIO(payload []byte, reps, parent int) (writeCPU, readCPU float64, wall time.Duration, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer ln.Close()
	type wres struct {
		cpu float64
		err error
	}
	wdone := make(chan wres, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c, err := ln.Accept()
		if err != nil {
			wdone <- wres{0, err}
			return
		}
		defer c.Close()
		lane := l.lane + 100
		c0 := threadCPU()
		for i := 0; i < reps && err == nil; i++ {
			id := l.rec.begin("serve.WriteFrame", lane, parent)
			err = serve.WriteFrame(c, payload)
			l.rec.end(id)
		}
		wdone <- wres{threadCPU() - c0, err}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPU(), time.Now()
	for i := 0; i < reps && err == nil; i++ {
		l.timed("serve.ReadFrame", parent, func() { _, err = serve.ReadFrame(c, 0) })
	}
	readCPU, wall = threadCPU()-c0, time.Since(t0)
	if err != nil {
		c.Close() // unblock a writer still pushing frames nobody will read
	}
	w := <-wdone
	if err == nil {
		err = w.err
	}
	return w.cpu, readCPU, wall, err
}

// store times the disk tier alone on frame-sized payloads.
func (l *ladder) store() error {
	root, done := l.section("store")
	defer done()
	dir, err := os.MkdirTemp(l.o.OutDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	payload := make([]byte, hostBuf)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	n := l.sz.reps
	var ferr error
	put := l.timed("store.PutAsync+Flush", root, func() {
		for i := 0; i < n; i++ {
			st.PutAsync(store.Key{Kind: store.KindBatch, FP: 1, A: 0, B: uint64(i)}, payload)
		}
		ferr = st.Flush()
	})
	if ferr != nil {
		return ferr
	}
	got := 0
	get := l.timed("store.Get", root, func() {
		for i := 0; i < n; i++ {
			if _, ok := st.Get(store.Key{Kind: store.KindBatch, FP: 1, A: 0, B: uint64(i)}, nil); ok {
				got++
			}
		}
	})
	if got != n {
		return fmt.Errorf("store returned %d of %d records", got, n)
	}
	mbs := float64(n) * hostBuf / 1e6
	l.m["store.put_MBps"] = mbs / put.Seconds()
	l.m["store.get_MBps"] = mbs / get.Seconds()
	return nil
}

// served runs ic_cold's spec through the server: cold with harness spans off
// and on, hot from the batch cache, a fresh server on the warmed disk
// directory, and the cluster router over one and three nodes. Everything
// received is checked against the local run at the end.
func (l *ladder) served() error {
	_, done := l.section("serve")
	defer done()
	ver := newVerifier(l.spec, false)
	coldEpochs, err := l.servedCold(ver)
	if err != nil {
		return err
	}
	if err := l.servedCached(ver); err != nil {
		return err
	}
	if err := l.clusterThree(ver); err != nil {
		return err
	}
	bad, err := ver.check(append([]int{0}, coldEpochs...), rng.New(l.o.Seed, "perf/verify"))
	if err != nil {
		return err
	}
	for _, m := range bad {
		return fmt.Errorf("epoch %d batch %d: %s differs from the local run", m.epoch, m.id, m.what)
	}
	return nil
}

// startRunner starts a runner whose fetch failures abort the ladder.
func (l *ladder) startRunner(cfg serve.Config, ver *verifier, rec *recorder) (*runner, error) {
	r := newRunner(cfg, ver, rec)
	if err := r.start(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// fetch is fetchEpoch with any failed fetch turned into an error.
func fetch(r *runner, epoch int) (epochRecord, error) {
	er, _ := r.fetchEpoch(epoch)
	if len(r.failures) > 0 {
		return er, fmt.Errorf("served rung: %s", r.failures[0])
	}
	return er, nil
}

// servedCold serves fresh epochs with every cache off, harness spans
// alternately off and on, and closes the ladder: the spans-off CPU per sample
// is the top the rungs are summed against. It returns the epochs served.
func (l *ladder) servedCold(ver *verifier) ([]int, error) {
	spans := newRecorder(false)
	r, err := l.startRunner(serveConfig(l.spec), ver, spans)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if _, err := fetch(r, 0); err != nil {
		return nil, err
	}
	var off, on []float64
	var epochs []int
	cpuOff, samplesOff := 0.0, 0
	for i := 0; i < 2*l.sz.coldPairs; i++ {
		spans.on = i%2 == 1
		er, err := fetch(r, 1+i)
		if err != nil {
			return nil, err
		}
		epochs = append(epochs, 1+i)
		if spans.on {
			on = append(on, float64(er.Samples)/er.WallS)
		} else {
			off = append(off, float64(er.Samples)/er.WallS)
			cpuOff += er.CPUS
			samplesOff += er.Samples
		}
	}
	l.m["serve.cold_samples_per_s"] = median(off)
	l.m["serve.cold_overhead_frac"] = 1 - median(off)/l.m["pipeline.loader_samples_per_s.w2"]
	l.m["trace.overhead_frac"] = 1 - median(on)/median(off)
	top := cpuOff * 1e3 / float64(samplesOff)
	sum := 0.0
	for name, v := range l.rung {
		l.m["ladder.cpu_ms_per_sample."+name] = v
		sum += v
	}
	l.m["ladder.cold_residual_frac"] = (top - sum) / top
	l.note = append(l.note, fmt.Sprintf("ladder: served-cold CPU is %.3f ms/sample; the rungs sum to %.3f ms/sample", top, sum))
	return epochs, r.close()
}

// servedCached measures the hot path (batch cache over a disk tier that is
// written through on the cold epoch only), the cluster router over that one
// hot node, and then a fresh server on the directory the first one wrote,
// with memory for the whole working set — the classic warm restart.
func (l *ladder) servedCached(ver *verifier) error {
	dir, err := os.MkdirTemp(l.o.OutDir, "ladder-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serveConfig(l.spec)
	cfg.BatchCacheBytes = cacheGiB
	cfg.DiskCacheDir = dir
	hot, err := l.startRunner(cfg, ver, nil)
	if err != nil {
		return err
	}
	defer hot.close()
	if _, err := fetch(hot, 0); err != nil {
		return err
	}
	if err := hot.srv.FlushDiskCache(); err != nil {
		return err
	}
	var hotMB, hotSps []float64
	for i := 0; i < 1+l.sz.hotReps; i++ {
		er, err := fetch(hot, 0)
		if err != nil {
			return err
		}
		if i > 0 { // the first hot epoch is warm-up
			hotMB = append(hotMB, float64(er.Bytes)/1e6/er.WallS)
			hotSps = append(hotSps, float64(er.Samples)/er.WallS)
		}
	}
	l.m["serve.hot_MBps"] = median(hotMB)
	l.m["serve.hot_frac_of_loopback"] = median(hotMB) / l.m["host.loopback_MBps"]
	n1, _, err := l.routed([]*serve.Server{hot.srv}, ver, false)
	if err != nil {
		return err
	}
	l.m["cluster.hot_samples_per_s.n1"] = n1
	l.m["cluster.route_overhead_frac"] = 1 - n1/median(hotSps)
	if err := hot.close(); err != nil {
		return err
	}

	warm, err := l.startRunner(cfg, ver, nil)
	if err != nil {
		return err
	}
	defer warm.close()
	er, err := fetch(warm, 0)
	if err != nil {
		return err
	}
	l.m["serve.disk_warm_samples_per_s"] = float64(er.Samples) / er.WallS
	if ds, ok := warm.srv.DiskCacheStats(); !ok || ds.BatchMisses != 0 {
		return fmt.Errorf("disk-warm server recomputed %d batches", ds.BatchMisses)
	}
	return warm.close()
}

// clusterThree routes epoch 0 over three nodes, each with its own batch cache.
func (l *ladder) clusterThree(ver *verifier) error {
	cfg := serveConfig(l.spec)
	cfg.BatchCacheBytes = cacheGiB
	var nodes []*serve.Server
	defer func() {
		for _, s := range nodes {
			shutdown(s)
		}
	}()
	for i := 0; i < 3; i++ {
		s := serve.New(cfg)
		if err := s.Start("127.0.0.1:0", ""); err != nil {
			return err
		}
		nodes = append(nodes, s)
	}
	n3, st, err := l.routed(nodes, ver, true)
	if err != nil {
		return err
	}
	l.m["cluster.hot_samples_per_s.n3"] = n3
	maxShare := 0
	for _, n := range st.PerNode {
		maxShare = max(maxShare, n)
	}
	l.m["cluster.node_share_max"] = float64(maxShare) / float64(st.Batches)
	l.m["cluster.rounds_per_epoch"] = float64(st.Rounds)
	return nil
}

// routed fetches epoch 0 through cluster.Client.RunEpoch — once to warm the
// nodes when cold is set, then hotReps times — and returns the median hot
// samples/s with the last epoch's routing stats.
func (l *ladder) routed(nodes []*serve.Server, ver *verifier, cold bool) (float64, *cluster.EpochStats, error) {
	cfg := cluster.Config{Name: "perf-cluster"}
	for i, s := range nodes {
		cfg.Nodes = append(cfg.Nodes, cluster.Node{ID: fmt.Sprintf("n%d", i), Addr: s.Addr()})
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	var verr error
	onBatch := func(_ string, b *serve.Batch, _ []byte) {
		if err := ver.observe(-1, 0, b); err != nil && verr == nil {
			verr = err
		}
	}
	if cold {
		if _, err := c.RunEpoch(0, onBatch); err != nil {
			return 0, nil, err
		}
	}
	var sps []float64
	var last *cluster.EpochStats
	root := l.rec.begin(fmt.Sprintf("cluster n%d", len(nodes)), l.lane, 0)
	defer l.rec.end(root)
	for i := 0; i < l.sz.hotReps; i++ {
		var st *cluster.EpochStats
		d := l.timed("cluster.Client.RunEpoch", root, func() { st, err = c.RunEpoch(0, onBatch) })
		if err != nil {
			return 0, nil, err
		}
		sps = append(sps, float64(st.Batches*batchSize)/d.Seconds())
		last = st
	}
	return median(sps), last, verr
}
