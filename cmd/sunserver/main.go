// Command sunserver serves simulated-Sunway experiment runs over HTTP:
// the first step toward a traffic-serving system built on the runtime.
// Requests execute on a shared worker pool with a content-addressed
// result cache, so identical specs — across clients and restarts — are
// near-free.
//
// Endpoints:
//
//	POST /run              submit a spec, returns {"id": "jN"}
//	GET  /jobs/{id}        job state and, when done, the full result
//	DELETE /jobs/{id}      cancel a pending job
//	GET  /jobs/{id}/trace  Chrome/Perfetto trace of a job run with "trace":true
//	GET  /jobs/{id}/events live job progress as Server-Sent Events
//	GET  /jobs             job summaries, sorted by id
//	GET  /metrics          Prometheus text: HTTP, pool and admission counters
//	GET  /healthz          liveness probe
//	GET  /artifacts/{name} render a paper table/figure (text)
//
// Accepted jobs are journaled to the -store directory, so a crash or
// restart resumes incomplete jobs — near-instantly when the on-disk
// result cache is warm. Every submission passes admission control, one
// check against a bounded outstanding window (-jobs running plus
// -max-queued waiting): when it is full the request gets 429 with reason
// "queue_full" and a Retry-After estimated from observed exec times. The
// sunserver_admission_total counter records each decision (accepted,
// queue_full). An X-Tenant header is recorded with the job.
//
// Requests run behind a per-request handler timeout; SIGINT/SIGTERM drains
// in-flight jobs for -grace before cancelling them. A -faults plan is
// applied to every spec that does not carry its own, so the whole service
// can run under deterministic chaos. -pprof additionally mounts Go's
// net/http/pprof profiling handlers under /debug/pprof/.
//
// Example:
//
//	sunserver -addr :8177 &
//	curl -s localhost:8177/run -d '{"cells":"32x32x64","layout":"2x2x1","cgs":2,"variant":"acc.async","steps":2,"functional":true}'
//	curl -s localhost:8177/jobs/j1
//	curl -s -X DELETE localhost:8177/jobs/j1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sunuintah/internal/admission"
	"sunuintah/internal/experiments"
	"sunuintah/internal/faults"
	"sunuintah/internal/jobstore"
	"sunuintah/internal/runner"
)

func main() {
	addr := flag.String("addr", ":8177", "listen address")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation jobs")
	cacheFlag := flag.String("cache", runner.DefaultCacheDir, `result cache: "off" (memory only) or an on-disk store directory`)
	storeFlag := flag.String("store", ".sunjobs", `persistent job store: "off" (jobs forgotten on restart) or a journal directory`)
	steps := flag.Int("steps", experiments.Steps, "default timesteps for requests that omit steps")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-job execution timeout (0 disables)")
	reqTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-HTTP-request handler timeout")
	grace := flag.Duration("grace", 30*time.Second, "drain window for in-flight jobs on SIGINT/SIGTERM")
	faultsFlag := flag.String("faults", "off", `default fault plan for specs that omit one: "off", "default", "default,scale=F" or "key=value,..."`)
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	maxQueued := flag.Int("max-queued", 256, "admission: max jobs waiting beyond the running window (<=0 uses the default)")
	retain := flag.Int("retain", defaultRetain, "terminal jobs kept in memory and in the journal")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	plan, err := faults.Parse(*faultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sunserver:", err)
		os.Exit(2)
	}

	var cache runner.Cache = runner.NewMemoryCache(0)
	if *cacheFlag != "off" && *cacheFlag != "" {
		dc, err := runner.NewDiskCache(*cacheFlag, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunserver:", err)
			os.Exit(1)
		}
		cache = dc
		logger.Info("on-disk result cache", "dir", dc.Dir())
	}

	var store *jobstore.Store
	if *storeFlag != "off" && *storeFlag != "" {
		store, err = jobstore.Open(*storeFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunserver:", err)
			os.Exit(1)
		}
		logger.Info("persistent job store", "dir", *storeFlag, "records", store.Len())
	}

	pool, err := runner.New(runner.Config{
		Workers: *jobs,
		Exec:    experiments.Exec,
		Cache:   cache,
		Timeout: *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sunserver:", err)
		os.Exit(1)
	}
	sweep := experiments.NewSweepWithPool(experiments.Options{Steps: *steps}, pool)

	adm := admission.New(admission.Config{MaxQueued: *maxQueued, MaxRunning: *jobs})

	// srvCtx is the collect-goroutine lifecycle: cancelled only after the
	// pool has drained, so graceful shutdowns still record finished jobs;
	// anything still waiting then bails out and is resumed from the
	// journal by the next incarnation.
	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()

	srv := newServer(srvCtx, pool, sweep, serverConfig{
		steps:  *steps,
		faults: plan,
		log:    logger,
		pprof:  *pprofFlag,
		cache:  cache,
		store:  store,
		adm:    adm,
		retain: *retain,
	})
	httpSrv := &http.Server{
		Addr: *addr,
		// rootHandler applies the request timeout to everything except the
		// SSE stream, which outlives any per-request deadline by design.
		Handler:           srv.rootHandler(*reqTimeout),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGINT/SIGTERM starts a graceful drain: stop accepting connections,
	// finish in-flight requests, then give running jobs the grace window
	// before the pool's base context is cancelled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if plan != nil {
		logger.Info("default fault plan", "plan", plan.Canonical())
	}
	if *pprofFlag {
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	logger.Info("listening", "addr", *addr, "workers", *jobs)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // a second signal kills immediately
		logger.Info("shutting down, draining in-flight work", "grace", *grace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
		drainErr := pool.Shutdown(drainCtx)
		// Collect goroutines either record their finished jobs or park on
		// srvCtx; cancel it and wait so the journal is consistent before
		// the store closes.
		srvCancel()
		srv.Drain()
		if err := store.Close(); err != nil {
			logger.Error("job store close", "err", err)
		}
		if drainErr != nil {
			logger.Error("drain cut short", "err", drainErr)
			os.Exit(1)
		}
		logger.Info("drained cleanly")
	}
}
