package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"sunuintah/internal/experiments"
)

// handler builds the route table. Wrong-method requests on /run and /jobs
// land on explicit method-less fallbacks that answer 405 with an Allow
// header and a JSON error (the mux's built-in 405 is plain text).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("/run", s.methodNotAllowed("POST"))
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("/jobs", s.methodNotAllowed("GET"))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /artifacts/{name}", s.handleArtifact)
	if s.cfg.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// statusRecorder captures the response code for logging and metrics, and
// forwards Flush so streaming responses work through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it streams; a non-Flusher
// underlying writer makes this a no-op rather than a panic.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the route table with request logging and HTTP metrics.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sr, r)
		dur := time.Since(t0)
		route := metricRoute(r.URL.Path)
		s.httpReqs.Inc(r.Method, route, strconv.Itoa(sr.status))
		s.httpDur.Observe(dur.Seconds(), r.Method, route)
		s.log.Info("request", "method", r.Method, "path", r.URL.Path,
			"status", sr.status, "duration", dur)
	})
}

// metricRoute collapses request paths onto their route patterns, so metric
// label cardinality stays bounded no matter how many jobs exist.
func metricRoute(p string) string {
	switch {
	case strings.HasPrefix(p, "/jobs/"):
		if strings.HasSuffix(p, "/trace") {
			return "/jobs/{id}/trace"
		}
		if strings.HasSuffix(p, "/events") {
			return "/jobs/{id}/events"
		}
		return "/jobs/{id}"
	case strings.HasPrefix(p, "/artifacts/"):
		return "/artifacts/{name}"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	}
	return p
}

// methodNotAllowed answers a wrong-method request with 405, the Allow
// header, and a JSON error body.
func (s *server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed; use %s", r.Method, allow)
	}
}

// writeJSON writes an indented JSON response. Encode failures after the
// header has gone out cannot change the status any more, but they are
// logged instead of silently dropped (a half-written body is a client
// disconnect or a marshalling bug — both worth seeing).
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("response encode", "status", status, "err", err)
	}
}

func (s *server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"service": "sunserver: simulated Sunway TaihuLight experiment service",
		"endpoints": []string{
			"POST /run", "GET /jobs", "GET /jobs/{id}", "DELETE /jobs/{id}",
			"GET /jobs/{id}/trace", "GET /jobs/{id}/events",
			"GET /metrics", "GET /healthz", "GET /artifacts/{name}",
		},
		"artifacts": experiments.ArtifactNames(),
	})
}
