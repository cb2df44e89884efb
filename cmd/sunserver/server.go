package main

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"

	"sunuintah/internal/admission"
	"sunuintah/internal/experiments"
	"sunuintah/internal/faults"
	"sunuintah/internal/jobstore"
	"sunuintah/internal/obs"
	"sunuintah/internal/runner"
)

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

	mu     sync.Mutex
	jobs   map[string]*apiJob
	nextID int
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
			"Admission decisions, by outcome (accepted, queue_full).",
			"decision"),
		admLive: reg.GaugeVec("sunserver_admission",
			"Admission-control gauges: outstanding jobs, queue depth, exec-time EWMA, journal size.",
			"name"),
		info: reg.GaugeVec("sunserver_info",
			"Service-level gauges: workers, uptime, accepted API jobs, cache hit ratio.",
			"name"),
		jobs: map[string]*apiJob{},
	}
	s.recoverJobs()
	return s
}

// Drain waits for the collect goroutines to finish their bookkeeping —
// call after the pool has drained, before closing the job store.
func (s *server) Drain() { s.wg.Wait() }
