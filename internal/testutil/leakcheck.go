// Package testutil holds assertion helpers shared by the repository's test
// suites and the chaos sweep harness. Production packages must not import
// it.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// goroutineProfile snapshots every live goroutine's stack.
func goroutineProfile() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// interesting reports whether one goroutine stack counts toward a leak.
// Runtime-internal and testing-harness goroutines are always running; they
// are noise, not leaks.
func interesting(stack string) bool {
	for _, benign := range []string{
		"testing.RunTests",
		"testing.(*T).Run",
		"testing.tRunner",
		"testing.runTests",
		"testing.Main",
		"runtime.goexit",
		"runtime/pprof",
		"testutil.goroutineProfile",
		"created by runtime",
		"signal.signal_recv",
		"runtime.gc",
		"runtime.MHeap",
		"GC worker",
		"finalizer",
	} {
		if strings.Contains(stack, benign) {
			return false
		}
	}
	return true
}

func countInteresting() (int, string) {
	prof := goroutineProfile()
	n := 0
	var stacks []string
	for _, g := range strings.Split(prof, "\n\n") {
		if strings.TrimSpace(g) == "" || !interesting(g) {
			continue
		}
		n++
		stacks = append(stacks, g)
	}
	return n, strings.Join(stacks, "\n\n")
}

// failer is the slice of *testing.T the checker needs (an interface so the
// non-test package does not import testing).
type failer interface {
	Helper()
	Errorf(format string, args ...any)
}

// CheckGoroutines snapshots the interesting goroutine count; the returned
// function re-counts and fails the test if goroutines remain above the
// baseline after a grace period. Use as:
//
//	defer testutil.CheckGoroutines(t)()
//
// at the top of any test that starts servers, clients, or pipelines — the
// teardown paths under test must not strand producer or worker goroutines.
func CheckGoroutines(t failer) func() {
	before, _ := countInteresting()
	return func() {
		t.Helper()
		// Goroutines unwind asynchronously after Close/Shutdown returns;
		// poll with a deadline instead of failing on the first count.
		deadline := time.Now().Add(5 * time.Second)
		var after int
		var stacks string
		for {
			after, stacks = countInteresting()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			t.Errorf("goroutine leak: %d interesting goroutines before, %d after\n%s",
				before, after, stacks)
		}
	}
}

// NoLeaksNow asserts immediately (no grace period) — for sweep runners that
// check between iterations rather than at test end.
func NoLeaksNow(baseline int) error {
	after, stacks := countInteresting()
	if after > baseline {
		return fmt.Errorf("goroutine leak: baseline %d, now %d\n%s", baseline, after, stacks)
	}
	return nil
}

// WaitNoLeaks polls until the interesting-goroutine count returns to the
// baseline or the timeout expires — teardown paths unwind asynchronously
// after Close/Shutdown returns, so an immediate count would flake.
func WaitNoLeaks(baseline int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := NoLeaksNow(baseline)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Baseline returns the current interesting-goroutine count for NoLeaksNow.
func Baseline() int {
	n, _ := countInteresting()
	return n
}

// CheckFrames is CheckGoroutines for frame memory, which lives outside the Go
// heap and is freed by nobody's collector: it snapshots inUse — pass
// serve.FramesInUse; this package imports nothing of the repository — and the
// returned function fails the test if, after a grace period, more frame
// buffers are out than were then. Register it before the test's servers
// start so that it runs after they have shut down:
//
//	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
//
// A server's Shutdown gives back every frame it holds, cache included, and a
// client holds none, so anything left is a Frame somebody never Released.
func CheckFrames(t failer, inUse func() int64) func() {
	before := inUse()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		after := inUse()
		for after > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			after = inUse()
		}
		if after > before {
			t.Errorf("frame leak: %d frame buffers in use before, %d after", before, after)
		}
	}
}
