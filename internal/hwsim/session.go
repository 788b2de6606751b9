package hwsim

import (
	"sort"
	"time"

	"lotus/internal/native"
)

// Session is the ITT / AMDProfileControl analogue: it gates hardware-event
// collection over explicit Resume/Pause windows, exactly as Listing 4 of the
// paper does around the Python operation of interest. A session attaches a
// recording to the engine on creation and stops recording on Detach.
type Session struct {
	engine  *native.Engine
	rec     *native.Recording
	windows []TimeRange
	resumed *time.Time
	done    bool
}

// NewSession attaches to the engine. Collection starts paused; call Resume.
func NewSession(engine *native.Engine) *Session {
	s := &Session{engine: engine, rec: native.NewRecording()}
	engine.Attach(s.rec)
	return s
}

// Resume opens a collection window at t (itt.resume / amd.resume(1)).
func (s *Session) Resume(t time.Time) {
	if s.done {
		panic("hwsim: Resume after Detach")
	}
	if s.resumed == nil {
		tt := t
		s.resumed = &tt
	}
}

// Pause closes the current collection window at t (itt.pause / amd.pause(1)).
func (s *Session) Pause(t time.Time) {
	if s.resumed != nil {
		s.windows = append(s.windows, TimeRange{Start: *s.resumed, End: t})
		s.resumed = nil
	}
}

// Detach finalizes the session at t (itt.detach): closes any open window and
// stops recording on the engine.
func (s *Session) Detach(t time.Time) {
	if s.done {
		return
	}
	s.Pause(t)
	s.engine.Detach()
	s.done = true
}

// Windows returns the closed collection windows.
func (s *Session) Windows() []TimeRange { return append([]TimeRange(nil), s.windows...) }

// Recording exposes the raw native timelines (for tests).
func (s *Session) Recording() *native.Recording { return s.rec }

// FuncRow is one row of a function-granularity profiler report — the shape
// of VTune's "Microarchitecture Exploration" grouped by Function, which the
// paper's workflow exports to CSV.
type FuncRow struct {
	Symbol   string
	Library  string
	Samples  int
	Counters Counters
}

// Report is a completed hardware-profile: function rows sorted by CPU time
// descending, as the VTune UI presents them.
type Report struct {
	Profiler string // "vtune" or "uprof"
	Arch     native.Arch
	Rows     []FuncRow
}

// Collect runs the sampler over the session's windows and aggregates samples
// into a function-granularity report. The session must be detached first.
func (s *Session) Collect(cfg SamplerConfig, profiler string) *Report {
	if !s.done {
		panic("hwsim: Collect before Detach")
	}
	samples := NewSampler(cfg).Run(s.rec, s.windows)
	return BuildReport(samples, profiler, s.engine.Arch())
}

// BuildReport aggregates raw samples into per-function rows.
func BuildReport(samples []Sample, profiler string, arch native.Arch) *Report {
	type key struct{ sym, lib string }
	agg := make(map[key]*FuncRow)
	for _, smp := range samples {
		k := key{smp.Symbol, smp.Library}
		row, ok := agg[k]
		if !ok {
			row = &FuncRow{Symbol: smp.Symbol, Library: smp.Library}
			agg[k] = row
		}
		row.Samples++
		row.Counters.Add(smp.Counters)
	}
	rep := &Report{Profiler: profiler, Arch: arch}
	for _, row := range agg {
		rep.Rows = append(rep.Rows, *row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Counters.CPUTime != rep.Rows[j].Counters.CPUTime {
			return rep.Rows[i].Counters.CPUTime > rep.Rows[j].Counters.CPUTime
		}
		return rep.Rows[i].Symbol < rep.Rows[j].Symbol
	})
	return rep
}
