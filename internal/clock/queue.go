package clock

// Queue is a bounded, closable FIFO usable under either clock. It mirrors the
// semantics of Python's multiprocessing.Queue as used by PyTorch's
// DataLoader: multiple producers, multiple consumers, blocking Put when full
// and blocking Get when empty.
//
// Capacity 0 means unbounded (Put never blocks).
type Queue[T any] struct {
	cond   Cond
	items  []T
	cap    int
	closed bool
}

// NewQueue creates a queue with the given capacity under clk's time domain.
func NewQueue[T any](clk Clock, capacity int) *Queue[T] {
	return &Queue[T]{cond: clk.NewCond(), cap: capacity}
}

// Put appends v, blocking while the queue is full. Put on a closed queue
// panics (it indicates a pipeline shutdown bug, as in the real DataLoader).
func (q *Queue[T]) Put(p Proc, v T) {
	q.cond.Lock()
	defer q.cond.Unlock()
	for q.cap > 0 && len(q.items) >= q.cap && !q.closed {
		q.cond.Wait(p)
	}
	if q.closed {
		panic("clock: Put on closed queue")
	}
	q.items = append(q.items, v)
	q.cond.Broadcast()
}

// Get removes and returns the head item, blocking while the queue is empty.
// ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p Proc) (v T, ok bool) {
	q.cond.Lock()
	defer q.cond.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait(p)
	}
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	q.cond.Broadcast()
	return v, true
}

// Close marks the queue closed. Blocked Gets return ok=false once drained;
// blocked Puts panic.
func (q *Queue[T]) Close() {
	q.cond.Lock()
	defer q.cond.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len reports the number of items currently buffered.
func (q *Queue[T]) Len() int {
	q.cond.Lock()
	defer q.cond.Unlock()
	return len(q.items)
}
