package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sunuintah/internal/admission"
	"sunuintah/internal/experiments"
	"sunuintah/internal/faults"
	"sunuintah/internal/jobstore"
	"sunuintah/internal/obs"
	"sunuintah/internal/runner"
	"sunuintah/internal/trace"
)

// runRequest is the POST /run body: a runner.Spec plus the paper's
// best-of-k repeat protocol for noisy specs.
type runRequest struct {
	runner.Spec
	// Repeats reruns a noisy spec with seeds 1..k and keeps the fastest
	// (ignored when Noise is 0).
	Repeats int `json:"repeats,omitempty"`
}

// apiJob is one accepted request and, eventually, its outcome.
type apiJob struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant,omitempty"`
	Spec      runner.Spec     `json:"spec"`
	Repeats   int             `json:"repeats,omitempty"`
	State     runner.JobState `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Result    *runner.Result  `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`

	// poolJobs are the live pool handles (one per repeat) while the job
	// is pending — the DELETE cancel path; nil once terminal.
	poolJobs []*runner.Job
	// admitted marks that the job owes one admission-slot release on its
	// terminal transition.
	admitted bool
	// resultInCache marks a done job recovered from the store whose Result
	// has not been looked up in the cache yet (see snapshot).
	resultInCache bool
}

// serverConfig carries the optional knobs of newServer; the zero value is
// an ephemeral, unthrottled server (what most tests want).
type serverConfig struct {
	steps  int          // default steps for requests that omit them
	shards int          // default engine shards for requests that omit them
	faults *faults.Plan // default fault plan for requests that omit one
	log    *slog.Logger
	pprof  bool                  // mount net/http/pprof under /debug/pprof/
	cache  runner.Cache          // result cache, for restart Result re-population
	store  *jobstore.Store       // persistent job store; nil = in-memory only
	adm    *admission.Controller // admission control; nil = admit everything
	retain int                   // terminal jobs kept in memory (<=0: defaultRetain)
	// heartbeat is the SSE keep-alive (and terminal-state poll) interval
	// of GET /jobs/{id}/events; <=0 selects defaultHeartbeat. Tests set
	// it to milliseconds so stream-close assertions run fast.
	heartbeat time.Duration
}

// defaultHeartbeat paces SSE keep-alive comments and bounds how long a
// follower waits for the "done" event after a job turns terminal.
const defaultHeartbeat = 2 * time.Second

// defaultRetain bounds the in-memory (and journaled) terminal-job history
// so a long-lived server's job map cannot grow without limit.
const defaultRetain = 512

// server fronts one shared runner pool with a JSON HTTP API: simulation
// requests, job status, pool metrics and the paper's artifacts all draw
// from the same workers and content-addressed cache. Accepted jobs are
// journaled to the job store (when configured) so they survive restarts,
// and every submission passes admission control first.
type server struct {
	pool   *experiments.Pool
	sweep  *experiments.Sweep
	cfg    serverConfig
	steps  int
	shards int
	faults *faults.Plan
	start  time.Time
	log    *slog.Logger
	store  *jobstore.Store
	adm    *admission.Controller
	retain int

	// ctx is the server's lifecycle context: collect goroutines wait on
	// it so shutdown actually drains them instead of leaking waiters
	// parked on context.Background. wg tracks those goroutines.
	ctx context.Context
	wg  sync.WaitGroup

	// Operational telemetry, exposed as Prometheus text on /metrics. HTTP
	// counters accumulate in the registry as requests finish; the pool's
	// own atomic counters are mirrored in at scrape time.
	reg       *obs.Registry
	httpReqs  *obs.CounterVec
	httpDur   *obs.HistogramVec
	poolTotal *obs.CounterVec
	poolSecs  *obs.CounterVec
	poolLive  *obs.GaugeVec
	admTotal  *obs.CounterVec
	admLive   *obs.GaugeVec
	info      *obs.GaugeVec

	mu             sync.Mutex
	jobs           map[string]*apiJob
	nextID         int
	scenarios      map[string]*apiScenario
	nextScenarioID int
}

// newServer builds the service. ctx is the server lifecycle: cancel it
// only after the pool has drained, then Drain() to collect the last
// bookkeeping goroutines.
func newServer(ctx context.Context, pool *experiments.Pool, sweep *experiments.Sweep, cfg serverConfig) *server {
	if cfg.log == nil {
		cfg.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.retain <= 0 {
		cfg.retain = defaultRetain
	}
	reg := obs.NewRegistry()
	s := &server{
		pool:   pool,
		sweep:  sweep,
		cfg:    cfg,
		steps:  cfg.steps,
		shards: cfg.shards,
		faults: cfg.faults,
		start:  time.Now(),
		log:    cfg.log,
		store:  cfg.store,
		adm:    cfg.adm,
		retain: cfg.retain,
		ctx:    ctx,
		reg:    reg,
		httpReqs: reg.CounterVec("sunserver_http_requests_total",
			"HTTP requests served, by method, route and status code.",
			"method", "path", "code"),
		httpDur: reg.HistogramVec("sunserver_http_request_duration_seconds",
			"HTTP request handling latency in seconds.",
			[]float64{0.001, 0.01, 0.1, 1, 10, 60}, "method", "path"),
		poolTotal: reg.CounterVec("sunserver_pool_jobs_total",
			"Runner-pool job counters, mirrored from the pool at scrape time.",
			"state"),
		poolSecs: reg.CounterVec("sunserver_pool_seconds_total",
			"Host seconds spent executing jobs (exec) and avoided by cache hits (saved).",
			"kind"),
		poolLive: reg.GaugeVec("sunserver_pool_jobs",
			"Runner-pool jobs currently queued or running.",
			"state"),
		admTotal: reg.CounterVec("sunserver_admission_total",
			"Admission decisions, by outcome (accepted, queue_full, quota, shed).",
			"decision"),
		admLive: reg.GaugeVec("sunserver_admission",
			"Admission-control gauges: outstanding jobs, queue depth, exec-time EWMA, journal size.",
			"name"),
		info: reg.GaugeVec("sunserver_info",
			"Service-level gauges: workers, uptime, accepted API jobs, cache hit ratio.",
			"name"),
		jobs:      map[string]*apiJob{},
		scenarios: map[string]*apiScenario{},
	}
	s.recoverJobs()
	return s
}

// recoverJobs replays the job store into the API surface: terminal jobs
// reappear in listings (done jobs regain their Result, when the
// content-addressed cache still holds it, the first time one is read —
// decoding a cache file per journal record here would hold back /healthz)
// and incomplete jobs are resubmitted to the pool — near-free when the disk
// cache is warm.
func (s *server) recoverJobs() {
	recs := s.store.Records()
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	if max := s.store.MaxID(); max > s.nextID {
		s.nextID = max
	}
	s.mu.Unlock()
	resumed := 0
	for _, rec := range recs {
		j := &apiJob{
			ID: rec.ID, Tenant: rec.Tenant, Spec: rec.Spec, Repeats: rec.Repeats,
			State: rec.State, Submitted: rec.Submitted, Finished: rec.Finished, Error: rec.Error,
		}
		if rec.Terminal() {
			j.resultInCache = rec.State == runner.StateDone && rec.Repeats <= 1 && s.cfg.cache != nil
			s.mu.Lock()
			s.jobs[j.ID] = j
			s.mu.Unlock()
			continue
		}
		j.State = runner.StateQueued
		j.admitted = true
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.mu.Unlock()
		// The previous incarnation admitted this job; reserve its slot so
		// recovered backlog counts against the admission window.
		s.adm.Reserve()
		repeats := rec.Repeats
		if repeats < 1 {
			repeats = 1
		}
		s.startJob(j.ID, rec.Spec, repeats)
		resumed++
	}
	s.log.Info("job store recovered", "records", len(recs), "resumed", resumed)
}

// Drain waits for the collect goroutines to finish their bookkeeping —
// call after the pool has drained, before closing the job store.
func (s *server) Drain() { s.wg.Wait() }

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
	mux.HandleFunc("POST /scenarios", s.handleScenarioSubmit)
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("/scenarios", s.methodNotAllowed("GET, POST"))
	mux.HandleFunc("GET /scenarios/{id}", s.handleScenario)
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
	case strings.HasPrefix(p, "/scenarios/"):
		return "/scenarios/{id}"
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
			"POST /scenarios", "GET /scenarios", "GET /scenarios/{id}",
			"GET /metrics", "GET /healthz", "GET /artifacts/{name}",
		},
		"artifacts": experiments.ArtifactNames(),
	})
}

// tenantOf extracts the request's tenant for quota accounting: the
// X-Tenant header, or "default" when absent.
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return "default"
}

// handleRun accepts a spec, validates it, passes admission control, and
// returns a job id immediately; the simulation executes on the shared
// pool. Overload answers 429 with a Retry-After computed from the
// observed exec-time EWMA and the queue depth.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Steps <= 0 {
		req.Steps = s.steps
	}
	// Shards only changes wall-clock speed (results are bit-identical), so
	// the server default fills in requests that don't choose; negative
	// values are rejected below by ValidateSpec.
	if req.Shards == 0 {
		req.Shards = s.shards
	}
	// The server's default fault plan applies to specs that don't bring
	// their own; an explicit all-zero plan opts a request out of it.
	if req.Faults == nil && !s.faults.Zero() {
		req.Faults = s.faults
	}
	if err := experiments.ValidateSpec(req.Spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	repeats := req.Repeats
	if repeats <= 1 || req.Noise == 0 {
		repeats = 1
	}

	tenant := tenantOf(r)
	if dec := s.adm.Admit(tenant, req.Spec); !dec.OK {
		secs := int(math.Ceil(dec.RetryAfter.Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.admTotal.Inc(dec.Reason)
		s.writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":             fmt.Sprintf("overloaded: %s; retry in %ds", dec.Reason, secs),
			"reason":            dec.Reason,
			"retryAfterSeconds": secs,
		})
		return
	}
	s.admTotal.Inc("accepted")

	s.mu.Lock()
	s.nextID++
	j := &apiJob{
		ID:        fmt.Sprintf("j%d", s.nextID),
		Tenant:    tenant,
		Spec:      req.Spec,
		Repeats:   repeats,
		State:     runner.StateQueued,
		Submitted: time.Now(),
		admitted:  true,
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()
	if err := s.store.Accept(jobstore.Record{
		ID: j.ID, Tenant: tenant, Spec: req.Spec, Repeats: repeats,
		State: runner.StateQueued, Submitted: j.Submitted,
	}); err != nil {
		s.log.Error("jobstore accept", "job", j.ID, "err", err)
	}

	s.startJob(j.ID, req.Spec, repeats)
	s.writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "status": "/jobs/" + j.ID})
}

// startJob submits every repeat of a spec to the pool and spawns the
// collector — the shared path of fresh submissions and restart recovery.
// The paper's "best result is selected" protocol: all repeats up front,
// reduced by min in the background.
func (s *server) startJob(id string, spec runner.Spec, repeats int) {
	jobs := make([]*runner.Job, repeats)
	for rep := 0; rep < repeats; rep++ {
		sp := spec
		if sp.Noise > 0 {
			sp.Seed = uint64(rep + 1)
		}
		jobs[rep] = s.pool.Submit(sp)
	}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		j.State = runner.StateRunning
		j.poolJobs = jobs
	}
	s.mu.Unlock()
	if err := s.store.SetState(id, runner.StateRunning); err != nil {
		s.log.Error("jobstore state", "job", id, "err", err)
	}
	s.wg.Add(1)
	go s.collect(id, jobs)
}

// collect waits for a job's repeats under the server lifecycle context,
// then publishes the terminal state to the API, the journal and the
// admission controller. A shutdown mid-wait leaves the journal entry
// incomplete on purpose: the next incarnation resumes the job.
func (s *server) collect(id string, jobs []*runner.Job) {
	defer s.wg.Done()
	t0 := time.Now()
	results := make([]*runner.Result, len(jobs))
	var firstErr error
	for i, job := range jobs {
		res, err := job.Wait(s.ctx)
		if err != nil {
			if s.ctx.Err() != nil {
				return // shutting down; journal stays incomplete for recovery
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		results[i] = res
	}
	canceled := errorsIsCanceled(firstErr)
	if firstErr != nil && !canceled && errorsIsInterrupted(firstErr) {
		// The pool was torn down under the job (shutdown grace expired or
		// the pool closed). Not a verdict on the job itself: leave it
		// incomplete in the journal so a restart resumes it.
		return
	}
	wall := time.Since(t0).Seconds()
	now := time.Now()

	state := runner.StateDone
	errMsg := ""
	var final *runner.Result
	switch {
	case canceled:
		state = runner.StateCanceled
	case firstErr != nil:
		state = runner.StateFailed
		errMsg = firstErr.Error()
	default:
		final = runner.MinResult(results)
	}

	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.Finished = &now
	j.State = state
	j.Error = errMsg
	j.Result = final
	j.poolJobs = nil
	release := j.admitted
	j.admitted = false
	s.gcLocked()
	s.mu.Unlock()

	if err := s.store.Finish(id, state, now, errMsg); err != nil {
		s.log.Error("jobstore finish", "job", id, "err", err)
	}
	if release {
		// Feed the admission EWMA the job's execution cost: the recorded
		// exec time, capped by the observed wall time so cache hits (whose
		// Result carries the original run's cost) count as the near-zero
		// work they actually were.
		exec := 0.0
		if final != nil && final.ExecSeconds > 0 {
			exec = math.Min(final.ExecSeconds, wall)
		}
		s.adm.Done(exec)
	}
}

// errorsIsCanceled reports a user-initiated cancel (DELETE /jobs/{id}).
func errorsIsCanceled(err error) bool { return errors.Is(err, runner.ErrCanceled) }

// errorsIsInterrupted reports an error caused by tearing the pool down
// under the job rather than by the job itself: shutdown grace expiring
// (context.Canceled from the pool's base context) or a submit racing the
// pool close.
func errorsIsInterrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, runner.ErrClosed)
}

// gcLocked enforces the terminal-job retention cap: oldest (lowest ID)
// terminal jobs are evicted from memory and dropped from the journal so
// neither grows without bound. Caller holds s.mu.
func (s *server) gcLocked() {
	terminal := make([]*apiJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		if jobstore.Terminal(j.State) {
			terminal = append(terminal, j)
		}
	}
	if len(terminal) <= s.retain {
		return
	}
	sort.Slice(terminal, func(i, k int) bool {
		return jobstore.NumericID(terminal[i].ID) < jobstore.NumericID(terminal[k].ID)
	})
	for _, j := range terminal[:len(terminal)-s.retain] {
		delete(s.jobs, j.ID)
		if err := s.store.Drop(j.ID); err != nil {
			s.log.Error("jobstore drop", "job", j.ID, "err", err)
		}
	}
}

// snapshot returns a copy of job id for a handler to read outside the lock,
// first fetching a recovered job's Result from the cache if that is still
// owed — under the lock, so a second reader never sees the job done but
// without the result the first is still decoding.
func (s *server) snapshot(id string) (apiJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return apiJob{}, false
	}
	if j.resultInCache {
		j.resultInCache = false
		if res, ok := s.cfg.cache.Get(j.Spec.Hash()); ok {
			j.Result = res
		}
	}
	return *j, true
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cp, ok := s.snapshot(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, cp)
}

// handleJobCancel aborts a pending job: queued repeats leave the pool
// immediately, running ones have their attempt context cancelled. The
// collector publishes the terminal "canceled" state; poll GET /jobs/{id}
// to observe it.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if jobstore.Terminal(j.State) {
		st := j.State
		s.mu.Unlock()
		s.writeError(w, http.StatusConflict, "job %q already %s", id, st)
		return
	}
	jobs := append([]*runner.Job(nil), j.poolJobs...)
	s.mu.Unlock()

	canceling := false
	for _, pj := range jobs {
		if s.pool.Cancel(pj) {
			canceling = true
		}
	}
	s.writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "canceling": canceling, "status": "/jobs/" + id})
}

// handleJobs lists job summaries (without the full results), sorted by
// numeric job ID so listings are stable across calls and map iterations.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		ID        string          `json:"id"`
		Tenant    string          `json:"tenant,omitempty"`
		Spec      string          `json:"spec"`
		State     runner.JobState `json:"state"`
		Submitted time.Time       `json:"submitted"`
	}
	s.mu.Lock()
	out := make([]summary, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, summary{ID: j.ID, Tenant: j.Tenant, Spec: j.Spec.String(), State: j.State, Submitted: j.Submitted})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		return jobstore.NumericID(out[i].ID) < jobstore.NumericID(out[k].ID)
	})
	s.writeJSON(w, http.StatusOK, out)
}

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
