// Package trace implements LotusTrace: the lightweight instrumentation layer
// for the DataLoader pipeline, its on-disk log format, the analyses built on
// the logs (per-operation statistics, per-batch preprocessing/wait/delay
// times, out-of-order arrival detection), and the Chrome Trace Viewer
// exporter with main-process↔worker data-flow arrows.
//
// The design follows § III of the paper: each instrumentation point emits
// exactly one record with two timing fields (start, duration) plus batch and
// process identifiers; the tracer keeps no other state and performs no other
// computation, which is what keeps its overhead near zero (Table III).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"lotus/internal/clock"
)

// Kind discriminates record types.
type Kind uint8

const (
	// KindOp is a per-sample transform application ([T3]) or a per-batch
	// collation.
	KindOp Kind = iota
	// KindBatchPreprocessed is the worker-side fetch span ([T1]).
	KindBatchPreprocessed
	// KindBatchWait is the main process's wait for a specific batch ([T2]).
	KindBatchWait
	// KindBatchConsumed marks the main process consuming a batch.
	KindBatchConsumed
)

// tag returns the log-format tag for the kind.
func (k Kind) tag() string {
	switch k {
	case KindOp:
		return "op"
	case KindBatchPreprocessed:
		return "pre"
	case KindBatchWait:
		return "wait"
	case KindBatchConsumed:
		return "cons"
	}
	return "?"
}

func kindFromTag(s string) (Kind, error) {
	switch s {
	case "op":
		return KindOp, nil
	case "pre":
		return KindBatchPreprocessed, nil
	case "wait":
		return KindBatchWait, nil
	case "cons":
		return KindBatchConsumed, nil
	}
	return 0, fmt.Errorf("trace: unknown record tag %q", s)
}

// NoWaitMarker is the duration logged for a batch that had already arrived
// (out of order) when the main process asked for it — § III-B's 1 µs
// convention.
const NoWaitMarker = time.Microsecond

// Record is one LotusTrace log entry.
type Record struct {
	Kind    Kind
	PID     int
	BatchID int
	// SampleIndex is the dataset index for per-sample op records; -1 for
	// batch-granularity records (including collation).
	SampleIndex int
	// Op is the operation name for KindOp records.
	Op    string
	Start time.Time
	Dur   time.Duration
}

// End returns the record's end time.
func (r Record) End() time.Time { return r.Start.Add(r.Dur) }

// appendFormat appends the record's stable on-disk form to b and returns the
// extended slice:
//
//	tag,pid,batch,sample,op,start_ns,dur_ns
//
// start_ns is relative to clock.Epoch so simulated logs are reproducible
// byte-for-byte. This is the tracer's emission fast path: with a reused
// buffer it performs zero allocations per record, where the fmt.Sprintf
// formulation cost seven (Table III's near-zero tracing overhead depends on
// emission staying off the allocator).
func (r Record) appendFormat(b []byte) []byte {
	b = append(b, r.Kind.tag()...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.PID), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.BatchID), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.SampleIndex), 10)
	b = append(b, ',')
	b = append(b, r.Op...)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.Start.Sub(clock.Epoch).Nanoseconds(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.Dur.Nanoseconds(), 10)
	return b
}

// ParseRecord parses one log line.
func ParseRecord(line string) (Record, error) {
	parts := strings.Split(strings.TrimSpace(line), ",")
	if len(parts) != 7 {
		return Record{}, fmt.Errorf("trace: malformed record (want 7 fields, got %d): %q", len(parts), line)
	}
	kind, err := kindFromTag(parts[0])
	if err != nil {
		return Record{}, err
	}
	ints := make([]int64, 0, 5)
	for _, i := range []int{1, 2, 3, 5, 6} {
		v, err := strconv.ParseInt(parts[i], 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("trace: bad integer field %d in %q: %v", i, line, err)
		}
		ints = append(ints, v)
	}
	return Record{
		Kind:        kind,
		PID:         int(ints[0]),
		BatchID:     int(ints[1]),
		SampleIndex: int(ints[2]),
		Op:          parts[4],
		Start:       clock.Epoch.Add(time.Duration(ints[3])),
		Dur:         time.Duration(ints[4]),
	}, nil
}

// ReadMeta extracts the provenance header written by Tracer.WriteMeta from
// the first comment line, if present.
func ReadMeta(line string) (map[string]string, bool) {
	line = strings.TrimSpace(line)
	const prefix = "# lotustrace v1"
	if !strings.HasPrefix(line, prefix) {
		return nil, false
	}
	meta := map[string]string{}
	for _, kv := range strings.Fields(line[len(prefix):]) {
		if i := strings.IndexByte(kv, '='); i > 0 {
			meta[kv[:i]] = kv[i+1:]
		}
	}
	return meta, true
}

// ReadLogWithMeta parses a log stream and returns the provenance header (nil
// if absent).
func ReadLogWithMeta(r io.Reader) ([]Record, map[string]string, error) {
	var meta map[string]string
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if m, ok := ReadMeta(text); ok && meta == nil {
				meta = m
			}
			continue
		}
		rec, err := ParseRecord(text)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return out, meta, nil
}

// ReadLog parses a whole log stream.
func ReadLog(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec, err := ParseRecord(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
