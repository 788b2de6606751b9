package trace

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/pipeline"
)

func ringRec(id int) Record {
	return Record{Kind: KindBatchWait, PID: 4000, BatchID: id, SampleIndex: -1,
		Start: clock.Epoch.Add(time.Duration(id) * time.Millisecond), Dur: time.Millisecond}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(ringRec(i))
	}
	if r.Total() != 10 {
		t.Fatalf("total %d, want 10", r.Total())
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i, rec := range snap {
		if rec.BatchID != 6+i {
			t.Fatalf("snapshot[%d].BatchID = %d, want %d (oldest-first order)", i, rec.BatchID, 6+i)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Add(ringRec(i))
	}
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].BatchID != 0 || snap[2].BatchID != 2 {
		t.Fatalf("partial snapshot wrong: %+v", snap)
	}
}

func TestRingHooksRecord(t *testing.T) {
	r := NewRing(16)
	h := r.Hooks()
	h.OnOp(4001, 3, 7, "Loader", clock.Epoch, time.Millisecond)
	h.OnBatchPreprocessed(4001, 3, clock.Epoch, 2*time.Millisecond)
	h.OnBatchWait(4000, 3, clock.Epoch, time.Microsecond)
	h.OnBatchConsumed(4000, 3, clock.Epoch, time.Microsecond)
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("got %d records", len(snap))
	}
	kinds := []Kind{KindOp, KindBatchPreprocessed, KindBatchWait, KindBatchConsumed}
	for i, k := range kinds {
		if snap[i].Kind != k {
			t.Fatalf("record %d kind %v, want %v", i, snap[i].Kind, k)
		}
	}
	if snap[0].Op != "Loader" || snap[0].SampleIndex != 7 {
		t.Fatalf("op record fields wrong: %+v", snap[0])
	}
	// The snapshot must be consumable by the Chrome exporter.
	if blob, err := ExportChrome(snap, Fine); err != nil || len(blob) == 0 {
		t.Fatalf("ExportChrome over ring snapshot: %v", err)
	}
}

// TestCollectorMatchesRing: the collector keeps what a ring large enough
// keeps, in the same order.
func TestCollectorMatchesRing(t *testing.T) {
	r, c := NewRing(64), &Collector{}
	for _, h := range []*pipeline.Hooks{r.Hooks(), c.Hooks()} {
		for b := 0; b < 8; b++ {
			h.OnOp(4001, b, b, "Loader", clock.Epoch, time.Millisecond)
			h.OnBatchPreprocessed(4001, b, clock.Epoch, 2*time.Millisecond)
			h.OnBatchWait(4000, b, clock.Epoch, time.Microsecond)
			h.OnBatchConsumed(4000, b, clock.Epoch, time.Microsecond)
		}
	}
	if got, want := c.Records(), r.Snapshot(); !reflect.DeepEqual(got, want) || len(got) != 32 {
		t.Fatalf("collector kept %d records, ring %d:\n%+v\n%+v", len(got), len(want), got, want)
	}
}

func TestRingConcurrentAdds(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(ringRec(g*100 + i))
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("total %d, want 800", r.Total())
	}
	if r.Len() != 64 {
		t.Fatalf("len %d, want 64", r.Len())
	}
}

// TestRingStripedRetention checks the striping invariant across capacities
// with different divisibility: regardless of how many stripes NewRing picks,
// the ring retains exactly the most recent `capacity` records, in insertion
// order.
func TestRingStripedRetention(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 5, 8, 10, 64} {
		r := NewRing(capacity)
		n := 3*capacity + 1 // force wraparound in every stripe
		for i := 0; i < n; i++ {
			r.Add(ringRec(i))
		}
		if r.Len() != capacity {
			t.Fatalf("capacity %d: len %d", capacity, r.Len())
		}
		snap := r.Snapshot()
		if len(snap) != capacity {
			t.Fatalf("capacity %d: snapshot len %d", capacity, len(snap))
		}
		for i, rec := range snap {
			if want := n - capacity + i; rec.BatchID != want {
				t.Fatalf("capacity %d: snapshot[%d].BatchID = %d, want %d",
					capacity, i, rec.BatchID, want)
			}
		}
	}
}

// BenchmarkRingAddParallel measures Add under the contention pattern the
// serving node produces: every connected session's pipeline hooks funnel into
// one shared ring. Before striping, a single ring mutex serialized them all.
func BenchmarkRingAddParallel(b *testing.B) {
	r := NewRing(4096)
	rec := ringRec(1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Add(rec)
		}
	})
}
