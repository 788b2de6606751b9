package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	sim := NewSim()
	var woke time.Time
	sim.Run("root", func(p Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	want := Epoch.Add(5 * time.Second)
	if !woke.Equal(want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if sim.Elapsed() != 5*time.Second {
		t.Fatalf("Elapsed = %v, want 5s", sim.Elapsed())
	}
}

func TestSimZeroSleepYields(t *testing.T) {
	sim := NewSim()
	var order []string
	sim.Run("a", func(p Proc) {
		p.Go("b", func(p Proc) {
			order = append(order, "b")
		})
		p.Sleep(0)
		order = append(order, "a")
	})
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

// TestSleepUntil: the wait is to an absolute time on either clock, and a
// time already past costs a yield, not a sleep.
func TestSleepUntil(t *testing.T) {
	sim := NewSim()
	var woke []time.Duration
	sim.Run("root", func(p Proc) {
		due := p.Now().Add(3 * time.Millisecond)
		SleepUntil(p, due)
		woke = append(woke, p.Now().Sub(Epoch))
		SleepUntil(p, due) // already past
		woke = append(woke, p.Now().Sub(Epoch))
	})
	if woke[0] != 3*time.Millisecond || woke[1] != 3*time.Millisecond {
		t.Fatalf("sim woke at %v, want [3ms 3ms]", woke)
	}
	NewReal().Run("root", func(p Proc) {
		start := p.Now()
		due := start.Add(400 * time.Microsecond)
		SleepUntil(p, due)
		if now := p.Now(); now.Before(due) {
			t.Errorf("real clock woke %v before its due time", due.Sub(now))
		}
		before := p.Now()
		SleepUntil(p, start)
		if d := p.Now().Sub(before); d > 50*time.Millisecond {
			t.Errorf("a past due time blocked for %v", d)
		}
	})
}

func TestSimParallelSleepersOverlap(t *testing.T) {
	// Two procs each sleeping 10s concurrently should finish at t=10s, not
	// t=20s: virtual time models true parallelism.
	sim := NewSim()
	sim.Run("root", func(p Proc) {
		for i := 0; i < 2; i++ {
			p.Go("w", func(p Proc) { p.Sleep(10 * time.Second) })
		}
	})
	if got := sim.Elapsed(); got != 10*time.Second {
		t.Fatalf("Elapsed = %v, want 10s", got)
	}
}

func TestSimDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		sim := NewSim()
		var order []string
		sim.Run("root", func(p Proc) {
			for i := 0; i < 5; i++ {
				name := string(rune('a' + i))
				p.Go(name, func(p Proc) {
					p.Sleep(time.Duration(5-len(order)) * time.Millisecond)
					order = append(order, p.Name())
					p.Sleep(time.Millisecond)
					order = append(order, p.Name())
				})
			}
		})
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: len %d != %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d: order diverged at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

func TestSimTieBreakBySpawnOrder(t *testing.T) {
	sim := NewSim()
	var order []string
	sim.Run("root", func(p Proc) {
		for _, name := range []string{"w1", "w2", "w3"} {
			p.Go(name, func(p Proc) {
				p.Sleep(time.Second) // identical deadlines
				order = append(order, p.Name())
			})
		}
	})
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimCondHandoff(t *testing.T) {
	sim := NewSim()
	cond := sim.NewCond()
	ready := false
	var consumerSaw time.Time
	sim.Run("root", func(p Proc) {
		p.Go("consumer", func(p Proc) {
			cond.Lock()
			for !ready {
				cond.Wait(p)
			}
			cond.Unlock()
			consumerSaw = p.Now()
		})
		p.Go("producer", func(p Proc) {
			p.Sleep(3 * time.Second)
			cond.Lock()
			ready = true
			cond.Broadcast()
			cond.Unlock()
		})
	})
	if want := Epoch.Add(3 * time.Second); !consumerSaw.Equal(want) {
		t.Fatalf("consumer resumed at %v, want %v", consumerSaw, want)
	}
}

func TestSimDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	sim := NewSim()
	cond := sim.NewCond()
	sim.Run("root", func(p Proc) {
		cond.Lock()
		cond.Wait(p) // nobody will ever broadcast
		cond.Unlock()
	})
}

func TestQueueFIFOAndClose(t *testing.T) {
	sim := NewSim()
	q := NewQueue[int](sim, 0)
	var got []int
	sim.Run("root", func(p Proc) {
		p.Go("producer", func(p Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(time.Millisecond)
				q.Put(p, i)
			}
			q.Close()
		})
		p.Go("consumer", func(p Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
	})
	if len(got) != 10 {
		t.Fatalf("got %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestQueueCapacityBlocksProducer(t *testing.T) {
	sim := NewSim()
	q := NewQueue[int](sim, 2)
	var lastPut time.Time
	sim.Run("root", func(p Proc) {
		p.Go("producer", func(p Proc) {
			for i := 0; i < 3; i++ {
				q.Put(p, i)
			}
			lastPut = p.Now()
		})
		p.Go("consumer", func(p Proc) {
			p.Sleep(5 * time.Second)
			q.Get(p)
		})
	})
	// The third Put must block until the consumer frees a slot at t=5s.
	if want := Epoch.Add(5 * time.Second); !lastPut.Equal(want) {
		t.Fatalf("third Put completed at %v, want %v", lastPut, want)
	}
}

func TestQueueTryGet(t *testing.T) {
	sim := NewSim()
	q := NewQueue[string](sim, 0)
	var empty, found bool
	var v string
	sim.Run("root", func(p Proc) {
		_, ok := q.TryGet()
		empty = !ok
		q.Put(p, "x")
		v, found = q.TryGet()
	})
	if !empty {
		t.Fatal("TryGet on empty queue should report !ok")
	}
	if !found || v != "x" {
		t.Fatalf("TryGet = (%q, %v), want (x, true)", v, found)
	}
}

func TestQueueStats(t *testing.T) {
	sim := NewSim()
	q := NewQueue[int](sim, 0)
	sim.Run("root", func(p Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Get(p)
	})
	puts, gets := q.Stats()
	if puts != 2 || gets != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", puts, gets)
	}
}

func TestRealClockRunsAllProcs(t *testing.T) {
	clk := NewReal()
	var n atomic.Int32
	clk.Run("root", func(p Proc) {
		for i := 0; i < 4; i++ {
			p.Go("w", func(p Proc) {
				p.Sleep(time.Millisecond)
				n.Add(1)
			})
		}
	})
	if n.Load() != 4 {
		t.Fatalf("ran %d procs, want 4", n.Load())
	}
}

func TestRealClockNowAdvances(t *testing.T) {
	clk := NewReal()
	var d time.Duration
	clk.Run("root", func(p Proc) {
		start := p.Now()
		p.Sleep(5 * time.Millisecond)
		d = p.Now().Sub(start)
	})
	if d < 4*time.Millisecond {
		t.Fatalf("slept %v, want >= ~5ms", d)
	}
}

func TestRealQueue(t *testing.T) {
	clk := NewReal()
	q := NewQueue[int](clk, 1)
	sum := 0
	clk.Run("root", func(p Proc) {
		p.Go("producer", func(p Proc) {
			for i := 1; i <= 5; i++ {
				q.Put(p, i)
			}
			q.Close()
		})
		p.Go("consumer", func(p Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				sum += v
			}
		})
	})
	if sum != 15 {
		t.Fatalf("sum = %d, want 15", sum)
	}
}

func TestSimNestedSpawn(t *testing.T) {
	sim := NewSim()
	depth := 0
	sim.Run("root", func(p Proc) {
		p.Go("child", func(p Proc) {
			depth = 1
			p.Go("grandchild", func(p Proc) {
				p.Sleep(time.Second)
				depth = 2
			})
		})
	})
	if depth != 2 {
		t.Fatalf("depth = %d, want 2 (Run must wait for transitively spawned procs)", depth)
	}
}

func TestSimManyProcsStress(t *testing.T) {
	sim := NewSim()
	q := NewQueue[int](sim, 4)
	total := 0
	sim.Run("root", func(p Proc) {
		for w := 0; w < 8; w++ {
			p.Go("producer", func(p Proc) {
				for i := 0; i < 50; i++ {
					p.Sleep(time.Duration(i%7) * time.Millisecond)
					q.Put(p, 1)
				}
			})
		}
		p.Go("consumer", func(p Proc) {
			for i := 0; i < 400; i++ {
				v, _ := q.Get(p)
				total += v
			}
		})
	})
	if total != 400 {
		t.Fatalf("total = %d, want 400", total)
	}
}

func TestSimStats(t *testing.T) {
	sim := NewSim()
	sim.Run("root", func(p Proc) {
		for i := 0; i < 3; i++ {
			p.Go("w", func(p Proc) {
				p.Sleep(time.Millisecond)
				p.Sleep(time.Millisecond)
			})
		}
	})
	st := sim.Stats()
	if st.Procs != 4 {
		t.Fatalf("Procs = %d, want 4 (root + 3 workers)", st.Procs)
	}
	if st.Switches < 7 {
		t.Fatalf("Switches = %d, want at least one per proc run segment", st.Switches)
	}
	// Both sleep deadlines are shared across workers: 2 distinct advances.
	if st.Advances != 2 {
		t.Fatalf("Advances = %d, want 2", st.Advances)
	}
}
