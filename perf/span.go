package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Parent is the ID of
// the span that caused it (0 = root); spans of one epoch fetch share that
// fetch's root span as ancestor.
type span struct {
	ID     int
	Parent int
	Name   string
	Lane   int // Chrome-trace thread row (one per client / ladder rung)
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil or disabled
// recorder costs one branch per call, which is what end-to-end runs use.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now()}
}

// begin opens a span and returns its ID (0 when recording is off).
func (r *recorder) begin(name string, lane, parent int) int {
	if r == nil || !r.on {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Lane: lane, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): complete events in microseconds, parent links in args.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
