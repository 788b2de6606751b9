package trace

import (
	"bufio"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"lotus/internal/pipeline"
)

// Tracer is the LotusTrace logger. It formats records to a writer as they
// arrive and maintains nothing else — no aggregation, no buffering of
// history — mirroring the paper's minimal-state design. It is safe for
// concurrent use (real-clock pipelines log from multiple goroutines).
type Tracer struct {
	mu      sync.Mutex
	w       *bufio.Writer
	records int
	bytes   int64
	// scratch is the per-tracer formatting buffer, reused under mu so record
	// emission performs zero heap allocations.
	scratch []byte
	// perLogCost is propagated into the Hooks so the pipeline charges each
	// record's emission cost to the emitting proc.
	perLogCost time.Duration
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithPerLogCost sets the modeled cost per emitted record (the paper
// measures ~200 µs per log on its setup; the default is 0, i.e. free).
func WithPerLogCost(d time.Duration) Option {
	return func(t *Tracer) { t.perLogCost = d }
}

// NewTracer writes LotusTrace records to w.
func NewTracer(w io.Writer, opts ...Option) *Tracer {
	t := &Tracer{w: bufio.NewWriterSize(w, 1<<16)}
	for _, o := range opts {
		o(t)
	}
	return t
}

// WriteMeta prepends a provenance header describing the traced run (free
// key=value pairs: workload, batch size, workers, seed). Readers skip it as
// a comment; ReadMeta recovers it so lotus-diff can flag incomparable runs.
// Call before the first record.
func (t *Tracer) WriteMeta(meta map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.records > 0 {
		panic("trace: WriteMeta after records were emitted")
	}
	keys := make([]string, 0, len(meta))
	size := len("# lotustrace v1") + 1
	for k := range meta {
		keys = append(keys, k)
		size += 1 + len(k) + 1 + len(meta[k])
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(size)
	b.WriteString("# lotustrace v1")
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(meta[k])
	}
	b.WriteByte('\n')
	n, _ := t.w.WriteString(b.String())
	t.bytes += int64(n)
}

func (t *Tracer) emit(r Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scratch = r.appendFormat(t.scratch[:0])
	t.scratch = append(t.scratch, '\n')
	n, _ := t.w.Write(t.scratch)
	t.records++
	t.bytes += int64(n)
}

// Hooks returns the pipeline instrumentation callbacks that feed this
// tracer. Pass the result as both the Compose hooks and the DataLoader
// config hooks (the paper similarly threads one log file through the
// Compose and ImageFolder/DataLoader APIs).
func (t *Tracer) Hooks() *pipeline.Hooks { return hooks(t.emit, t.perLogCost) }

// hooks returns the four pipeline callbacks, each turning its event into a
// Record for add, with the given modeled cost per record.
func hooks(add func(Record), perLogCost time.Duration) *pipeline.Hooks {
	batch := func(kind Kind) func(pid, batchID int, start time.Time, dur time.Duration) {
		return func(pid, batchID int, start time.Time, dur time.Duration) {
			add(Record{Kind: kind, PID: pid, BatchID: batchID, SampleIndex: -1, Start: start, Dur: dur})
		}
	}
	return &pipeline.Hooks{
		OnOp: func(pid, batchID, sampleIndex int, op string, start time.Time, dur time.Duration) {
			add(Record{Kind: KindOp, PID: pid, BatchID: batchID, SampleIndex: sampleIndex, Op: op, Start: start, Dur: dur})
		},
		OnBatchPreprocessed: batch(KindBatchPreprocessed),
		OnBatchWait:         batch(KindBatchWait),
		OnBatchConsumed:     batch(KindBatchConsumed),
		PerLogCost:          perLogCost,
	}
}

// Flush writes buffered records through to the underlying writer.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}

// Records reports how many records have been emitted.
func (t *Tracer) Records() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.records
}

// Bytes reports the log storage consumed so far (pre-Flush bytes included),
// the Table III storage-overhead metric.
func (t *Tracer) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}
