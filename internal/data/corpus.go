package data

import (
	"hash/crc32"
	"os"
	"sync"
)

// castagnoli is CRC32C, the repo's checksum for bytes at rest.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// corpus memoizes an image dataset's rendered files: the first real read of
// sample i renders it and appends the blob to a process-private temp file,
// every later read is one ReadAt plus a CRC32C check. The zero value is
// ready and owns nothing — the file is created by the first append, so a
// dataset that is only ever costed (Simulated mode) never opens one. The
// file is unlinked as soon as it is created and nothing closes it
// explicitly: it lives as long as the dataset and goes when the dataset is
// collected (os.File closes its descriptor when it becomes unreachable).
//
// Stored bytes are never trusted and never required: a read that fails or
// does not match its checksum, and a file that cannot be created or
// written, degrade to rendering inline.
type corpus struct {
	mu sync.Mutex
	f  *os.File // nil before the first append and once disabled
	// index maps a resolution cap to one ref per record; a ref with n == 0
	// is a sample not rendered yet. One file serves every cap.
	index map[int][]blobRef
	stats CorpusStats
}

// blobRef locates one blob in the corpus file.
type blobRef struct {
	off int64
	n   uint32
	crc uint32
}

// CorpusStats are the counters of an ImageDataset's on-disk corpus.
type CorpusStats struct {
	// Rendered counts blobs rendered and stored: the distinct samples
	// touched, plus one per stored blob that had to be replaced.
	Rendered int64 `json:"rendered"`
	// Reads counts touches served from the file.
	Reads int64 `json:"reads"`
	// Bytes is the file's size.
	Bytes int64 `json:"bytes"`
	// ReadErrors counts reads that failed or did not match their checksum
	// and were rendered inline instead.
	ReadErrors int64 `json:"read_errors"`
	// Disabled is set once the file could not be created or written; every
	// touch renders inline from then on.
	Disabled bool `json:"disabled"`
}

// read fetches the stored blob of sample i at the maxDim cap into buf
// (reallocated when too small). ok is false when there is none — not rendered
// yet, or the stored bytes failed to read or verify, in which case the ref is
// dropped so the caller's fresh render replaces it.
func (c *corpus) read(i, maxDim int, buf []byte) (blob []byte, ok bool) {
	c.mu.Lock()
	f, ref := c.f, c.ref(i, maxDim)
	c.mu.Unlock()
	if ref.n == 0 {
		return nil, false
	}
	if cap(buf) < int(ref.n) {
		buf = make([]byte, ref.n)
	}
	buf = buf[:ref.n]
	// A short read comes back as an error (io.EOF) from ReadAt.
	_, err := f.ReadAt(buf, ref.off)
	ok = err == nil && crc32.Checksum(buf, castagnoli) == ref.crc

	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.stats.Reads++
		return buf, true
	}
	c.stats.ReadErrors++
	if c.ref(i, maxDim) == ref {
		c.index[maxDim][i] = blobRef{}
	}
	return nil, false
}

// ref returns sample i's ref at the maxDim cap, zero when absent. c.mu held.
func (c *corpus) ref(i, maxDim int) blobRef {
	if refs := c.index[maxDim]; refs != nil {
		return refs[i]
	}
	return blobRef{}
}

// append stores sample i's freshly rendered blob and publishes its ref.
// records sizes the cap's ref table on first use. When two workers race the
// first touch of one sample both render and the second append is dropped:
// the bytes are a pure function of the record, so either copy serves.
func (c *corpus) append(i, maxDim, records int, blob []byte) {
	ref := blobRef{n: uint32(len(blob)), crc: crc32.Checksum(blob, castagnoli)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Disabled {
		return
	}
	if c.f == nil {
		f, err := createUnlinked()
		if err != nil {
			c.disable()
			return
		}
		c.f = f
		c.index = make(map[int][]blobRef)
	}
	refs := c.index[maxDim]
	if refs == nil {
		refs = make([]blobRef, records)
		c.index[maxDim] = refs
	}
	if refs[i].n != 0 {
		return
	}
	ref.off = c.stats.Bytes
	if _, err := c.f.WriteAt(blob, ref.off); err != nil {
		c.disable()
		return
	}
	refs[i] = ref
	c.stats.Bytes += int64(len(blob))
	c.stats.Rendered++
}

// disable gives the file up for good. c.mu held.
func (c *corpus) disable() {
	if c.f != nil {
		c.f.Close()
	}
	c.f, c.index = nil, nil
	c.stats.Disabled = true
}

// createUnlinked creates the corpus file under os.TempDir and removes its
// name at once, so no exit path — a crash included — leaves it behind. Where
// an open file cannot be removed the corpus is not used at all.
func createUnlinked() (*os.File, error) {
	f, err := os.CreateTemp("", "lotus-corpus-*")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}
