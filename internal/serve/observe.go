package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/imaging"
)

// startHTTP brings up the observability sidecar:
//
//	GET /healthz      liveness + drain state
//	GET /metrics      MetricsSnapshot JSON (server totals + per-session rows)
//	GET /trace        Chrome Trace JSON of the live ring (?granularity=fine
//	                  for per-op spans)
//	GET /debug/pprof  standard pprof handlers, for CPU profiles and for
//	                  diagnosing footprint regressions at high session counts
func (s *Server) startHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: http listen %s: %w", addr, err)
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.httpSrv = srv
	go srv.Serve(ln)
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":          status,
		"workload":        string(s.cfg.Spec.Kind),
		"mode":            s.modeName(),
		"sessions_active": s.metrics.Snapshot(time.Now(), s.ring.Total()).SessionsActive,
	})
}

// Snapshot composes the full /metrics document: the counter registry plus
// every optional block the server owns (caches, QoS tenants, log
// suppression, plan-cache stats, runtime footprint gauges).
func (s *Server) Snapshot(now time.Time) MetricsSnapshot {
	snap := s.metrics.Snapshot(now, s.ring.Total())
	if st, ok := s.CacheStats(); ok {
		snap.Cache = &st
	}
	if st, ok := s.SampleCacheStats(); ok {
		snap.SampleCache = &st
	}
	if st, ok := s.DiskCacheStats(); ok {
		snap.DiskCache = &st
	}
	if corpus, decode, ok := s.plane.loaderStats(); ok {
		snap.Corpus, snap.Decode = &corpus, &decode
	}
	snap.Resize.CoeffHits, snap.Resize.CoeffMisses = imaging.CoeffCacheStats()
	snap.Plan = s.plan
	snap.Tenants = s.qos.snapshot()
	if s.slog != nil {
		snap.LogSuppressed = s.slog.suppressed.Load()
	}
	snap.PlanBuilds, snap.PlanHits = s.plans.stats()
	snap.Goroutines, snap.HeapBytes = runtimeGauges()
	snap.Frames = frameStats()
	return snap
}

// runtimeGauges reads the live goroutine count and heap footprint from
// runtime/metrics — the cheap view of per-session cost; full profiles are
// on /debug/pprof.
func runtimeGauges() (goroutines, heapBytes int64) {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		goroutines = int64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		heapBytes = int64(samples[1].Value.Uint64())
	}
	return goroutines, heapBytes
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot(time.Now()))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	g := trace.Coarse
	if r.URL.Query().Get("granularity") == "fine" {
		g = trace.Fine
	}
	blob, err := trace.ExportChrome(s.ring.Snapshot(), g)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
