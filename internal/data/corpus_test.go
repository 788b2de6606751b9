package data

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"lotus/internal/imaging"
)

// TestMaterializeGolden pins the renderer's bytes to what Loader.Apply built
// inline before the corpus existed (4:2:0, quality 85, capped geometry):
// CRC32C values taken on that commit. Decoded pixels, spec fingerprints and
// warm disk tiers all rest on these bytes not moving.
func TestMaterializeGolden(t *testing.T) {
	imagenet := NewImageDataset(ImageNetConfig(512, 7))
	coco := NewImageDataset(COCOConfig(64, 3))
	for _, g := range []struct {
		ds     *ImageDataset
		i, dim int
		n      int
		crc    uint32
	}{
		{imagenet, 0, 256, 8614, 0xb7ab2c8a},
		{imagenet, 1, 256, 17338, 0x93f12627},
		{imagenet, 7, 256, 16996, 0x65c18f8f},
		{imagenet, 100, 256, 15449, 0x98c59031},
		{imagenet, 511, 256, 22122, 0xf335c5c4},
		{imagenet, 3, 64, 1587, 0x71e42ea6},
		{imagenet, 3, 0, 19895, 0x0058a2d1}, // no cap named: DefaultMaterializeDim
		{coco, 0, 256, 19126, 0x32f1f378},
		{coco, 63, 256, 9548, 0x3a62e79f},
	} {
		blob := g.ds.Record(g.i).Materialize(g.dim)
		if got := crc32.Checksum(blob, castagnoli); len(blob) != g.n || got != g.crc {
			t.Errorf("%s[%d] cap %d: %d bytes crc %#08x, want %d bytes crc %#08x",
				g.ds.Name, g.i, g.dim, len(blob), got, g.n, g.crc)
		}
		if got := g.ds.Blob(g.ds.Record(g.i), g.dim, nil); !bytes.Equal(got, blob) {
			t.Errorf("%s[%d] cap %d: Blob differs from Materialize", g.ds.Name, g.i, g.dim)
		}
	}
}

// TestCorpusRacingFirstTouches races eight goroutines over every index of a
// 512-record dataset, each in its own order, so first touches collide. Every
// blob handed out must equal a fresh inline render, each sample must be
// stored once however many goroutines rendered it, and no read may see a
// torn index entry (a torn ref fails its checksum and counts a read error).
func TestCorpusRacingFirstTouches(t *testing.T) {
	const n, dim, racers = 512, 64, 8
	ds := NewImageDataset(ImageNetConfig(n, 11))
	want := make([][]byte, n)
	for i := range want {
		want[i] = ds.Record(i).Materialize(dim)
	}
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for k := 0; k < n; k++ {
				// Odd strides visit every index; near-equal ones collide.
				i := (k*(2*(g%2)+1) + g/2) % n
				blob := ds.Blob(ds.Record(i), dim, buf)
				if !bytes.Equal(blob, want[i]) {
					t.Errorf("racer %d: sample %d differs from the inline render", g, i)
					return
				}
				if cap(blob) > cap(buf) {
					buf = blob[:0]
				}
			}
		}(g)
	}
	wg.Wait()
	st := ds.CorpusStats()
	if st.Rendered != n || st.ReadErrors != 0 || st.Disabled {
		t.Fatalf("after the race: %+v, want rendered %d, no read errors, not disabled", st, n)
	}
	if st.Rendered+st.Reads > racers*n {
		t.Fatalf("rendered %d + reads %d exceed %d touches", st.Rendered, st.Reads, racers*n)
	}
	var size int64
	for _, b := range want {
		size += int64(len(b))
	}
	if st.Bytes != size {
		t.Fatalf("corpus holds %d bytes, the %d blobs total %d", st.Bytes, n, size)
	}
	// A quiet pass afterwards is all reads.
	for i := 0; i < n; i++ {
		if !bytes.Equal(ds.Blob(ds.Record(i), dim, nil), want[i]) {
			t.Fatalf("sample %d differs after the race", i)
		}
	}
	if after := ds.CorpusStats(); after.Reads != st.Reads+n || after.Rendered != n {
		t.Fatalf("quiet pass: %+v after %+v, want %d more reads and no render", after, st, n)
	}
}

// TestCorpusKeyedByCap: one dataset touched at two caps holds both renderings
// apart, and a record that is not the dataset's own is rendered, not looked up.
func TestCorpusKeyedByCap(t *testing.T) {
	ds := NewImageDataset(ImageNetConfig(4, 2))
	rec := ds.Record(1)
	for pass := 0; pass < 2; pass++ {
		for _, dim := range []int{64, 128} {
			if !bytes.Equal(ds.Blob(rec, dim, nil), rec.Materialize(dim)) {
				t.Fatalf("pass %d cap %d: wrong bytes", pass, dim)
			}
		}
	}
	if st := ds.CorpusStats(); st.Rendered != 2 || st.Reads != 2 {
		t.Fatalf("two caps, two passes: %+v, want rendered 2 reads 2", st)
	}
	other := NewImageDataset(ImageNetConfig(4, 3)).Record(1)
	if !bytes.Equal(ds.Blob(other, 64, nil), other.Materialize(64)) {
		t.Fatal("foreign record: wrong bytes")
	}
	if st := ds.CorpusStats(); st.Rendered != 2 || st.Reads != 2 {
		t.Fatalf("a foreign record touched the corpus: %+v", st)
	}
}

// TestCorpusSteadyReadAllocatesNothing: a later touch with a scratch buffer big
// enough is a lookup, a ReadAt and a checksum — no heap.
func TestCorpusSteadyReadAllocatesNothing(t *testing.T) {
	ds := NewImageDataset(ImageNetConfig(8, 5))
	rec := ds.Record(2)
	buf := ds.Blob(rec, 64, nil) // the rendered blob doubles as the scratch
	if n := testing.AllocsPerRun(100, func() { ds.Blob(rec, 64, buf[:0]) }); n != 0 {
		t.Fatalf("a steady corpus read allocates %.1f times", n)
	}
	if st := ds.CorpusStats(); st.Reads < 100 || st.ReadErrors != 0 {
		t.Fatalf("the measured touches were not corpus reads: %+v", st)
	}
}

// samePixels decodes both blobs and compares what a Loader would hand on.
func samePixels(t *testing.T, got, want []byte) {
	t.Helper()
	a, err := imaging.DecodeSJPG(got)
	if err != nil {
		t.Fatalf("blob does not decode: %v", err)
	}
	b, err := imaging.DecodeSJPG(want)
	if err != nil {
		t.Fatal(err)
	}
	if a.W != b.W || a.H != b.H || !bytes.Equal(a.Pix, b.Pix) {
		t.Fatal("decoded pixels differ from the inline render's")
	}
}

// TestCorpusDamageFallsBackToRender damages the file behind the index — one
// flipped byte, then a truncation — and expects the right pixels regardless,
// one counted read error per damaged read, and the damaged blob replaced.
func TestCorpusDamageFallsBackToRender(t *testing.T) {
	const dim = 64
	ds := NewImageDataset(ImageNetConfig(8, 5))
	for i := 0; i < ds.Len(); i++ {
		ds.Blob(ds.Record(i), dim, nil)
	}
	if err := ds.DamageStoredBlob(3, dim, false); err != nil {
		t.Fatal(err)
	}
	for touch := 0; touch < 2; touch++ {
		samePixels(t, ds.Blob(ds.Record(3), dim, nil), ds.Record(3).Materialize(dim))
	}
	if st := ds.CorpusStats(); st.ReadErrors != 1 || st.Rendered != 9 || st.Reads != 1 {
		t.Fatalf("after one flipped byte and two touches: %+v, want read_errors 1, rendered 9 (the blob replaced), reads 1", st)
	}

	// Short read: cut the file in the middle of the last blob — the
	// replacement sits at the end.
	if err := ds.DamageStoredBlob(3, dim, true); err != nil {
		t.Fatal(err)
	}
	samePixels(t, ds.Blob(ds.Record(3), dim, nil), ds.Record(3).Materialize(dim))
	if st := ds.CorpusStats(); st.ReadErrors != 2 || st.Disabled {
		t.Fatalf("after a truncation: %+v, want read_errors 2, still enabled", st)
	}
	// Untouched blobs still read.
	samePixels(t, ds.Blob(ds.Record(0), dim, nil), ds.Record(0).Materialize(dim))
	if st := ds.CorpusStats(); st.ReadErrors != 2 {
		t.Fatalf("an undamaged blob failed to read: %+v", st)
	}
}

// TestCorpusUnusableFileDisables: no temp directory, and a file that stops
// taking writes, both end in disabled — and in the right bytes.
func TestCorpusUnusableFileDisables(t *testing.T) {
	const dim = 64
	t.Run("no temp dir", func(t *testing.T) {
		t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
		ds := NewImageDataset(ImageNetConfig(4, 5))
		for touch := 0; touch < 2; touch++ {
			samePixels(t, ds.Blob(ds.Record(1), dim, nil), ds.Record(1).Materialize(dim))
		}
		if st := ds.CorpusStats(); !st.Disabled || st.Rendered != 0 || st.Reads != 0 || st.Bytes != 0 {
			t.Fatalf("%+v, want disabled and empty", st)
		}
	})
	t.Run("write fails", func(t *testing.T) {
		ds := NewImageDataset(ImageNetConfig(4, 5))
		ds.Blob(ds.Record(0), dim, nil)
		ds.corpus.f.Close() // every later read and write fails
		samePixels(t, ds.Blob(ds.Record(0), dim, nil), ds.Record(0).Materialize(dim))
		if st := ds.CorpusStats(); !st.Disabled || st.ReadErrors != 1 {
			t.Fatalf("%+v, want disabled after one failed read and one failed write", st)
		}
		samePixels(t, ds.Blob(ds.Record(1), dim, nil), ds.Record(1).Materialize(dim))
		if ds.corpus.f != nil || ds.corpus.index != nil {
			t.Fatal("disabled corpus still holds its file or index")
		}
	})
}

// TestCorpusLeavesNothingBehind: the temp file has no name from the moment it
// exists, so TMPDIR stays empty while the corpus is in use.
func TestCorpusLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	ds := NewImageDataset(ImageNetConfig(4, 5))
	ds.Blob(ds.Record(0), 64, nil)
	if st := ds.CorpusStats(); st.Rendered != 1 || st.Disabled {
		t.Fatalf("corpus not in use: %+v", st)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("TMPDIR holds %v while the corpus is open", left[0].Name())
	}
}

func openFDs(t *testing.T) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd here: %v", err)
	}
	return len(fds)
}

// settledFDs counts open descriptors once collecting what earlier tests
// dropped has stopped moving the count (finalizers run after the GC cycle,
// on their own goroutine).
func settledFDs(t *testing.T) int {
	n := openFDs(t)
	for stable := 0; stable < 3; {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if m := openFDs(t); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// TestCorpusDescriptorsReclaimed: a dataset that is only costed opens nothing,
// and the descriptors of 200 touched, dropped datasets go with them.
func TestCorpusDescriptorsReclaimed(t *testing.T) {
	base := settledFDs(t)
	idle := NewImageDataset(ImageNetConfig(64, 1))
	for i := 0; i < idle.Len(); i++ {
		_ = idle.Record(i)
	}
	if n := openFDs(t); n != base {
		t.Fatalf("an untouched dataset moved the open-fd count %d -> %d", base, n)
	}
	func() {
		held := make([]*ImageDataset, 200)
		for i := range held {
			held[i] = NewImageDataset(ImageNetConfig(2, int64(i)))
			held[i].Blob(held[i].Record(0), 32, nil)
		}
		if n := openFDs(t); n != base+len(held) {
			t.Fatalf("%d touched datasets hold %d descriptors", len(held), n-base)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := openFDs(t); n <= base {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("open descriptors %d, baseline %d: dropped datasets leak their corpus file", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
