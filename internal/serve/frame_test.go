package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeFrameMem is a frameList's memory source that maps from the Go heap and
// keeps the books: what is mapped now, and that nothing is given back twice
// or without having been mapped.
type fakeFrameMem struct {
	mu     sync.Mutex
	mapped map[*byte]int
	fail   bool
	t      *testing.T
}

func newFakeFrameList(t *testing.T) (*frameList, *fakeFrameMem) {
	m := &fakeFrameMem{mapped: make(map[*byte]int), t: t}
	return newFrameList(m.alloc, m.free), m
}

func (m *fakeFrameMem) alloc(n int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return nil, errors.New("cannot allocate memory")
	}
	b := make([]byte, n)
	m.mapped[&b[0]] = n
	return b, nil
}

func (m *fakeFrameMem) free(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mapped[&b[0]] != len(b) {
		m.t.Errorf("unmap of %d bytes at %p, which maps %d", len(b), &b[0], m.mapped[&b[0]])
	}
	delete(m.mapped, &b[0])
	return nil
}

func (m *fakeFrameMem) live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.mapped)
}

func TestFrameListReusesMostRecentFirst(t *testing.T) {
	l, mem := newFakeFrameList(t)
	const class = 2 << 20
	a, b, c := l.get(class), l.get(class), l.get(class)
	if cap(*a) != class || len(*a) != 0 {
		t.Fatalf("get returned len %d cap %d, want an empty buffer of the class", len(*a), cap(*a))
	}
	l.put(a)
	l.put(b)
	l.put(c)
	if st := l.snapshot(); st.Maps != 3 || st.Idle != 3 || st.MappedBytes != 3*class {
		t.Fatalf("after three gets and puts: %+v", st)
	}
	// Last in, first out: steady traffic keeps touching the same buffers and
	// the burst's extras sink to the cold end.
	if got := l.get(class); got != c {
		t.Fatal("get did not return the most recently put buffer")
	}
	if got := l.get(class); got != b {
		t.Fatal("get did not return the next most recent buffer")
	}
	l.put(b)
	l.put(c)
	if st := l.snapshot(); st.Maps != 3 || st.Unmaps != 0 || mem.live() != 3 {
		t.Fatalf("reuse mapped or unmapped something: %+v, %d live", st, mem.live())
	}
}

func TestFrameListTrimsByIdleAge(t *testing.T) {
	l, mem := newFakeFrameList(t)
	const class = 2 << 20
	cold, warm, held := l.get(class), l.get(class), l.get(class)
	start := time.Now()
	l.put(cold)
	l.trim(start.Add(frameIdleAge / 2))
	if st := l.snapshot(); st.Unmaps != 0 || st.Idle != 1 {
		t.Fatalf("a buffer idle for half the age was given back: %+v", st)
	}
	l.put(warm)
	// Reused in the meantime, warm is younger than cold however long ago it
	// was mapped.
	warm = l.get(class)
	l.put(warm)
	l.trim(start.Add(-time.Second)) // a clock that steps back gives nothing back
	l.trim(time.Now().Add(frameIdleAge))
	st := l.snapshot()
	if st.Unmaps != 2 || st.Idle != 0 || st.MappedBytes != class || mem.live() != 1 {
		t.Fatalf("after both idle buffers came of age: %+v, %d live, want only the held one mapped", st, mem.live())
	}
	// A buffer in use is never trimmed, whatever its age; it is when it
	// comes back and sits.
	l.put(held)
	l.trim(time.Now().Add(2 * frameIdleAge))
	if st := l.snapshot(); st.Unmaps != 3 || st.MappedBytes != 0 || mem.live() != 0 {
		t.Fatalf("after the last buffer aged out: %+v, %d live", st, mem.live())
	}
	// Steady state after a trim: one map, then reuse.
	l.put(l.get(class))
	l.put(l.get(class))
	if st := l.snapshot(); st.Maps != 4 {
		t.Fatalf("maps %d, want 4: one new mapping after the trim and then reuse", st.Maps)
	}
}

func TestFrameListKeepsClassesApart(t *testing.T) {
	l, mem := newFakeFrameList(t)
	big, small := frameBufClass(19<<20), frameBufClass(5<<20)
	b := l.get(big)
	l.put(b)
	// A smaller frame does not take the oversize buffer (and pin 19 MB under
	// 5): it gets its own class, and the big one ages out.
	s := l.get(small)
	if s == b || cap(*s) != small {
		t.Fatalf("a %d-byte request got a buffer of %d", small, cap(*s))
	}
	l.put(s)
	if got := l.get(big); got != b {
		t.Fatal("the big class lost its idle buffer")
	}
	l.put(b)
	if st := l.snapshot(); st.Maps != 2 || st.Idle != 2 || st.MappedBytes != int64(big+small) {
		t.Fatalf("two classes, one buffer each: %+v", st)
	}
	l.trim(time.Now().Add(frameIdleAge))
	if st := l.snapshot(); st.Unmaps != 2 || st.MappedBytes != 0 || mem.live() != 0 {
		t.Fatalf("after both classes aged out: %+v, %d live", st, mem.live())
	}
}

func TestFrameListMapFailureFallsBackToHeap(t *testing.T) {
	l, mem := newFakeFrameList(t)
	const class = 2 << 20
	mem.fail = true
	box := l.get(class)
	if cap(*box) != class || len(*box) != 0 {
		t.Fatalf("fallback buffer has len %d cap %d", len(*box), cap(*box))
	}
	*box = append(*box, 1, 2, 3) // usable memory
	if st := l.snapshot(); st.MapErrors != 1 || st.Maps != 0 || st.MappedBytes != 0 {
		t.Fatalf("after a refused mapping: %+v", st)
	}
	// The heap buffer is the collector's: put neither keeps nor unmaps it.
	l.put(box)
	l.trim(time.Now().Add(frameIdleAge))
	if st := l.snapshot(); st.Idle != 0 || st.Unmaps != 0 {
		t.Fatalf("a heap fallback buffer went onto the free list: %+v", st)
	}
	mem.fail = false
	l.put(l.get(class))
	if st := l.snapshot(); st.Maps != 1 || st.Idle != 1 || st.MapErrors != 1 {
		t.Fatalf("after the kernel relented: %+v", st)
	}
}

// TestFrameListConcurrent is the -race workout: goroutines taking, writing,
// checking and returning buffers of two classes while trims run.
func TestFrameListConcurrent(t *testing.T) {
	l, mem := newFakeFrameList(t)
	classes := []int{1 << 20, 3 << 20}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				box := l.get(classes[(g+i)%2])
				*box = append(*box, byte(g), byte(i))
				if i%16 == 0 {
					l.trim(time.Now().Add(frameIdleAge)) // everything idle is of age
				}
				if (*box)[0] != byte(g) || (*box)[1] != byte(i) {
					t.Errorf("goroutine %d: another owner wrote to the buffer", g)
				}
				l.put(box)
			}
		}(g)
	}
	wg.Wait()
	l.trim(time.Now().Add(frameIdleAge))
	if st := l.snapshot(); st.Idle != 0 || st.MappedBytes != 0 || st.Maps != st.Unmaps || mem.live() != 0 {
		t.Fatalf("after the churn: %+v, %d live", st, mem.live())
	}
}

// TestFrameBufThreshold: the package's own list, through frameBufFor: large
// buffers come from it and go back to it, small ones never touch it, and both
// count as in use while they are out.
func TestFrameBufThreshold(t *testing.T) {
	before, inUse := frameStats(), FramesInUse()
	small := frameBufFor(4 << 10)
	if st := frameStats(); st.Maps != before.Maps || st.InUse != inUse+1 {
		t.Fatalf("a 4 KiB frame buffer: %+v, was %+v", st, before)
	}
	frameBufPut(small)
	big := frameBufFor(frameMapThreshold)
	*big = append(*big, make([]byte, frameMapThreshold)...) // every page writable
	mid := frameStats()
	if mid.Maps+mid.MapErrors == before.Maps+before.MapErrors && mid.Idle == before.Idle {
		t.Fatalf("a 1 MiB frame buffer came from neither a mapping nor the free list: %+v, was %+v", mid, before)
	}
	if mid.InUse != inUse+1 {
		t.Fatalf("in use %d, want %d", mid.InUse, inUse+1)
	}
	frameBufPut(big)
	if st := frameStats(); st.Idle != mid.Idle+1 || st.InUse != inUse {
		t.Fatalf("after putting it back: %+v, was %+v", st, mid)
	}
	if again := frameBufFor(frameMapThreshold - 100); again != big {
		t.Fatal("a second frame of the class did not reuse the idle buffer")
	} else {
		frameBufPut(again)
	}
}
