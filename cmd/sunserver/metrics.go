package main

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/runner"
	"sunuintah/internal/trace"
)

// handleMetrics serves the registry in the Prometheus text exposition
// format, mirroring the pool's and admission controller's counters in
// first.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.pool.Metrics()
	s.mu.Lock()
	total := len(s.jobs)
	s.mu.Unlock()
	s.poolTotal.Set(float64(m.Submitted), "submitted")
	s.poolTotal.Set(float64(m.Coalesced), "coalesced")
	s.poolTotal.Set(float64(m.Done), "done")
	s.poolTotal.Set(float64(m.Failed), "failed")
	s.poolTotal.Set(float64(m.Canceled), "canceled")
	s.poolTotal.Set(float64(m.Executed), "executed")
	s.poolTotal.Set(float64(m.CacheHits), "cache_hits")
	s.poolTotal.Set(float64(m.Retries), "retries")
	s.poolTotal.Set(float64(m.Panics), "panics")
	s.poolSecs.Set(m.ExecSeconds, "exec")
	s.poolSecs.Set(m.SavedSeconds, "saved")
	s.poolLive.Set(float64(m.Queued), "queued")
	s.poolLive.Set(float64(m.Running), "running")
	if s.adm != nil {
		am := s.adm.Metrics()
		// The counter families are incremented at decision time; only the
		// gauges mirror controller state at scrape time.
		s.admLive.Set(float64(am.Outstanding), "outstanding")
		depth := am.Outstanding - s.pool.Workers()
		if depth < 0 {
			depth = 0
		}
		s.admLive.Set(float64(depth), "queue_depth")
		s.admLive.Set(am.ExecEWMA, "exec_ewma_seconds")
	}
	if s.store != nil {
		s.admLive.Set(float64(s.store.Len()), "journal_records")
		s.admLive.Set(float64(s.store.JournalEntries()), "journal_entries")
	}
	s.info.Set(float64(s.pool.Workers()), "workers")
	s.info.Set(time.Since(s.start).Seconds(), "uptime_seconds")
	s.info.Set(float64(total), "api_jobs")
	s.info.Set(float64(s.retain), "retain_cap")
	s.info.Set(m.HitRate(), "cache_hit_ratio")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("metrics write", "err", err)
	}
}

// handleHealthz answers the liveness probe with enough build and load
// context to identify what is running and how busy it is: uptime, the Go
// toolchain and VCS revision baked in by the build, worker count, and the
// admission/journal backlog.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	body := map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"goVersion":     runtime.Version(),
		"workers":       s.pool.Workers(),
		"jobs":          jobs,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		body["module"] = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				body["vcsRevision"] = kv.Value
			case "vcs.time":
				body["vcsTime"] = kv.Value
			case "vcs.modified":
				body["vcsModified"] = kv.Value == "true"
			}
		}
	}
	if s.adm != nil {
		body["outstanding"] = s.adm.Metrics().Outstanding
	}
	if s.store != nil {
		body["journalRecords"] = s.store.Len()
		body["journalEntries"] = s.store.JournalEntries()
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleJobTrace serves a finished job's event timeline as a Chrome/
// Perfetto trace file. Only jobs submitted with "trace": true carry one.
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cp, ok := s.snapshot(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if cp.State != runner.StateDone || cp.Result == nil || cp.Result.Sim == nil || len(cp.Result.Sim.Trace) == 0 {
		s.writeError(w, http.StatusNotFound,
			"job %q has no recorded trace (submit the spec with \"trace\": true and wait for it to finish)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+"-trace.json"))
	if err := trace.NewFromEvents(cp.Result.Sim.Trace).WriteChromeTrace(w); err != nil {
		s.log.Error("trace download", "job", id, "err", err)
	}
}

// handleArtifact renders one of the paper's tables or figures from the
// shared sweep: the cells it needs execute on the same pool and cache as
// everything else.
func (s *server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !experiments.IsArtifact(name) {
		s.writeError(w, http.StatusNotFound, "unknown artifact %q", name)
		return
	}
	out, err := experiments.RunArtifact(s.sweep, name, s.steps)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%s: %v", name, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}
