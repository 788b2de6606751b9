package pipeline

// Kernel-wiring tests: each transform's simulated execution must issue
// exactly the kernels its GroundTruth declares (no more — spurious kernels
// would corrupt LotusMap validation — and byte counts must track the
// sample's geometry). A recording engine observes the actual calls.

import (
	"testing"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
	"lotus/internal/tensor"
)

// observeKernels applies one transform to the sample and returns the
// invoked kernels with their byte counts.
func observeKernels(t *testing.T, tf Transform, s Sample, arch native.Arch) map[string]int {
	t.Helper()
	engine := native.NewEngine(arch)
	rec := native.NewRecording()
	engine.Attach(rec)
	sim := clock.NewSim()
	sim.Run("root", func(p clock.Proc) {
		ctx := &Ctx{Proc: p, Engine: engine, Thread: &native.Thread{ID: 1, Cursor: clock.Epoch}, Mode: Simulated, Seed: 1}
		tf.Apply(ctx, s)
	})
	engine.Detach()
	out := map[string]int{}
	for _, th := range rec.Threads() {
		for _, inv := range rec.Timeline(th) {
			out[inv.Kernel.Name] += inv.Bytes
		}
	}
	return out
}

// assertWithinGroundTruth fails if any invoked kernel is not declared.
func assertWithinGroundTruth(t *testing.T, tf Transform, got map[string]int) {
	t.Helper()
	declared := map[string]bool{}
	for _, k := range tf.Kernels() {
		declared[k] = true
	}
	for k := range got {
		if !declared[k] {
			t.Errorf("%s invoked undeclared kernel %q", tf.Name(), k)
		}
	}
}

func icSample(w, h int) Sample {
	return Sample{Index: 3, FileBytes: 100 << 10, Seed: 8, Width: w, Height: h, Channels: 3, Dtype: tensor.Uint8}
}

func TestLoaderKernelWiring(t *testing.T) {
	tf := &Loader{IO: data.IOModel{}}
	for _, arch := range []native.Arch{native.Intel, native.AMD} {
		got := observeKernels(t, tf, icSample(400, 300), arch)
		assertWithinGroundTruth(t, tf, got)
		raw := 400 * 300 * 3
		if got["decode_mcu"] != 100<<10 {
			t.Fatalf("%s: decode_mcu consumed %d bytes, want the file size", arch, got["decode_mcu"])
		}
		if got["ycc_rgb_convert"] != raw {
			t.Fatalf("%s: ycc consumed %d, want raw %d", arch, got["ycc_rgb_convert"], raw)
		}
		// IDCT covers the full raw plane whether or not the 16x16 variant
		// split off part of it.
		if got["jpeg_idct_islow"]+got["jpeg_idct_16x16"] != raw {
			t.Fatalf("%s: idct total %d, want %d", arch, got["jpeg_idct_islow"]+got["jpeg_idct_16x16"], raw)
		}
	}
	// Vendor-specific kernels appear only on their vendor.
	intel := observeKernels(t, tf, icSample(400, 300), native.Intel)
	amd := observeKernels(t, tf, icSample(400, 300), native.AMD)
	if _, ok := intel["sep_upsample"]; ok {
		t.Fatal("sep_upsample on Intel")
	}
	if _, ok := amd["calloc"]; ok {
		t.Fatal("calloc on AMD")
	}
	if _, ok := amd["sep_upsample"]; !ok {
		t.Fatal("AMD loader missing sep_upsample")
	}
}

func TestRandomResizedCropKernelWiring(t *testing.T) {
	tf := &RandomResizedCrop{Size: 224}
	got := observeKernels(t, tf, icSample(640, 480), native.Intel)
	assertWithinGroundTruth(t, tf, got)
	if got["ImagingResampleHorizontal_8bpc"] == 0 || got["ImagingResampleVertical_8bpc"] == 0 {
		t.Fatalf("resample kernels missing: %v", got)
	}
	// The vertical pass touches at least the 224x224 output.
	if got["ImagingResampleVertical_8bpc"] < 224*224*3 {
		t.Fatalf("vertical resample bytes %d below output size", got["ImagingResampleVertical_8bpc"])
	}
}

func TestToTensorAndNormalizeKernelWiring(t *testing.T) {
	s := icSample(224, 224)
	tt := &ToTensor{}
	got := observeKernels(t, tt, s, native.Intel)
	assertWithinGroundTruth(t, tt, got)
	if got["convert_u8_f32"] == 0 {
		t.Fatalf("ToTensor kernels: %v", got)
	}

	s.Dtype = tensor.Float32
	norm := &Normalize{Mean: []float32{0, 0, 0}, Std: []float32{1, 1, 1}}
	got = observeKernels(t, norm, s, native.Intel)
	assertWithinGroundTruth(t, norm, got)
	if got["normalize_f32"] != 224*224*3*4 {
		t.Fatalf("normalize bytes %d, want f32 plane", got["normalize_f32"])
	}
}

func TestVolumeOpsKernelWiring(t *testing.T) {
	vs := Sample{Index: 1, FileBytes: 8 << 20, Seed: 3, Depth: 64, Height: 128, Width: 128, Channels: 1, Dtype: tensor.Float32}
	raw := 64 * 128 * 128 * 4

	vl := &VolumeLoader{IO: data.IOModel{}}
	got := observeKernels(t, vl, vs, native.Intel)
	assertWithinGroundTruth(t, vl, got)
	if got["npy_parse"] != raw {
		t.Fatalf("npy_parse %d, want %d", got["npy_parse"], raw)
	}

	cast := &Cast{}
	got = observeKernels(t, cast, vs, native.Intel)
	assertWithinGroundTruth(t, cast, got)
	if got["cast_f32_u8"] != raw {
		t.Fatalf("cast bytes %d, want %d", got["cast_f32_u8"], raw)
	}

	// Post-cast sample: noise cost still follows the element count in f32.
	u8 := vs
	u8.Dtype = tensor.Uint8
	gn := &GaussianNoise{P: 1}
	got = observeKernels(t, gn, u8, native.Intel)
	assertWithinGroundTruth(t, gn, got)
	if got["gaussian_noise_f32"] != raw {
		t.Fatalf("noise bytes %d, want element count x4 = %d", got["gaussian_noise_f32"], raw)
	}
}

func TestSkippedBranchesInvokeNothing(t *testing.T) {
	// P=0 effectively disables the op's random branch via the sample RNG;
	// use probabilities that the per-sample stream resolves to "skip".
	vs := Sample{Index: 2, FileBytes: 1 << 20, Seed: 5, Depth: 16, Height: 32, Width: 32, Channels: 1, Dtype: tensor.Float32}
	rba := &RandomBrightnessAugmentation{P: 0.0000001}
	got := observeKernels(t, rba, vs, native.Intel)
	if len(got) != 0 {
		t.Fatalf("skipped RBA still invoked kernels: %v", got)
	}
}

func TestCollateNKernelWiring(t *testing.T) {
	cn := &CollateN{N: 4}
	got := observeKernels(t, cn, icSample(224, 224), native.Intel)
	assertWithinGroundTruth(t, cn, got)
	want := 4 * 224 * 224 * 3 // four copies of the sample's uint8 payload
	if got["cat_serial_kernel"] != want {
		t.Fatalf("collate bytes %d, want %d", got["cat_serial_kernel"], want)
	}
}
