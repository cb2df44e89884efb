package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ExecFunc executes one Spec. Infeasible cases must be reported as a
// Result with Feasible == false (they cache); errors are never cached.
// The pool enforces the per-job timeout around the call, so ExecFunc need
// not watch ctx, though it may to abort early.
type ExecFunc func(ctx context.Context, spec Spec) (*Result, error)

// EventType classifies pool progress events.
type EventType int

// Pool event kinds, in rough lifecycle order.
const (
	EventQueued EventType = iota
	EventStarted
	EventCacheHit
	EventRetried
	EventDone
	EventFailed
	EventCanceled
)

// Event is one progress notification. Done/Total/HitRate snapshot the
// pool at emission time, ready for "[done/total, hit-rate]" progress
// lines.
type Event struct {
	Type    EventType
	Spec    Spec
	Done    int64 // jobs finished (success or failure)
	Total   int64 // jobs submitted so far
	HitRate float64
	Err     error // EventRetried / EventFailed
}

// Config configures a Pool.
type Config struct {
	// Workers is the number of concurrent executors; 0 means
	// runtime.GOMAXPROCS(0). Each simulated case is self-contained, so
	// runs are embarrassingly parallel.
	Workers int
	// Exec runs one spec. Required.
	Exec ExecFunc
	// Cache, when non-nil, memoises results by content hash; Submit
	// answers a cached spec without queueing it.
	Cache Cache
	// Timeout bounds each execution attempt; 0 disables. A timed-out
	// attempt fails the job but never the process.
	Timeout time.Duration
	// OnEvent, when non-nil, receives progress events. It may be called
	// concurrently from worker goroutines and must be safe for that.
	OnEvent func(Event)
}

// retries is the number of extra attempts for retryable failures: panics
// (always) and errors of jobs using the noise model.
const retries = 2

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("runner: pool closed")

// ErrCanceled is the terminal error of a job aborted via Pool.Cancel.
var ErrCanceled = errors.New("runner: job canceled")

// PanicError converts a crashed run into an ordinary, retryable job
// error: the panic fails only its job, not the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job panicked: %v", e.Value)
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Job is one submitted Spec. Submitting the same Spec (by content hash)
// while a job for it is pending returns the existing job, so concurrent
// callers coalesce onto a single execution.
type Job struct {
	Spec Spec
	Hash string

	state  atomic.Value // JobState
	done   chan struct{}
	result *Result
	err    error

	// canceled and cancelFn are guarded by the owning pool's mu: canceled
	// marks a cancel request observed before the job registered its
	// attempt context, cancelFn aborts a registered in-flight attempt.
	canceled bool
	cancelFn context.CancelFunc
}

// State reports the job's current lifecycle state.
func (j *Job) State() JobState { return j.state.Load().(JobState) }

// Wait blocks until the job finishes or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Pool executes jobs concurrently with caching, dedup, panic recovery,
// timeouts and bounded retry.
type Pool struct {
	cfg Config

	// baseCtx parents every attempt's context; baseCancel aborts in-flight
	// work when a Shutdown deadline expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	inflight map[string]*Job // pending jobs by spec hash
	closed   bool
	wg       sync.WaitGroup

	m metrics
}

// New creates and starts a pool.
func New(cfg Config) (*Pool, error) {
	if cfg.Exec == nil {
		return nil, errors.New("runner: Config.Exec is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{cfg: cfg, inflight: map[string]*Job{}}
	p.baseCtx, p.baseCancel = context.WithCancel(context.Background())
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p, nil
}

// Workers reports the pool's concurrency.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Metrics snapshots the pool's counters.
func (p *Pool) Metrics() Metrics { return p.m.snapshot() }

// Submit hands a spec to the pool and returns its job without blocking. A
// spec already pending (same content hash) returns the pending job. A
// spec the cache holds finishes at submit: the returned job is already
// done, and never queues behind executions. Anything else is enqueued for
// a worker. After Close, the returned job is already failed with
// ErrClosed.
func (p *Pool) Submit(spec Spec) *Job {
	hash := spec.Hash()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		j := newJob(spec, hash)
		j.fail(ErrClosed)
		return j
	}
	if j, ok := p.inflight[hash]; ok {
		atomic.AddInt64(&p.m.coalesced, 1)
		p.mu.Unlock()
		return j
	}
	j := newJob(spec, hash)
	p.inflight[hash] = j
	atomic.AddInt64(&p.m.submitted, 1)
	p.mu.Unlock()
	p.emit(EventQueued, spec, nil)

	// The lookup runs outside the lock; twins coalesce onto j meanwhile. It
	// cannot miss a finished twin's result, because execute Puts a result
	// before finish takes the job out of inflight.
	if p.cfg.Cache != nil {
		if r, ok := p.cfg.Cache.Get(hash); ok {
			atomic.AddInt64(&p.m.cacheHits, 1)
			atomic.AddInt64(&p.m.savedNanos, int64(r.ExecSeconds*1e9))
			p.finish(j, r, nil)
			p.emit(EventCacheHit, spec, nil)
			p.emit(EventDone, spec, nil)
			return j
		}
	}
	p.mu.Lock()
	if p.closed { // closed during the lookup: the workers may be gone
		p.mu.Unlock()
		p.finish(j, nil, ErrClosed)
		return j
	}
	p.queue = append(p.queue, j)
	p.cond.Signal()
	p.mu.Unlock()
	return j
}

// Run submits a spec and waits for its result.
func (p *Pool) Run(ctx context.Context, spec Spec) (*Result, error) {
	return p.Submit(spec).Wait(ctx)
}

// Close drains the queue, waits for running jobs and stops the workers.
// Subsequent Submit calls fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	p.baseCancel()
}

// Shutdown drains the pool gracefully: Submit is refused immediately,
// queued and running jobs get until ctx's deadline to finish, and if the
// deadline passes first the pool's base context is cancelled — aborting
// in-flight attempts cooperatively — before waiting for the workers to
// return. It reports ctx.Err() when the drain was cut short.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		p.baseCancel()
		return nil
	case <-ctx.Done():
		p.baseCancel()
		<-idle
		return ctx.Err()
	}
}

func newJob(spec Spec, hash string) *Job {
	j := &Job{Spec: spec, Hash: hash, done: make(chan struct{})}
	j.state.Store(StateQueued)
	return j
}

func (j *Job) fail(err error) { j.failState(StateFailed, err) }

func (j *Job) failState(st JobState, err error) {
	j.err = err
	j.state.Store(st)
	close(j.done)
}

// Cancel aborts a pending job: a still-queued job is removed from the
// queue and finishes immediately with ErrCanceled in StateCanceled; a
// running job has its attempt context cancelled and finishes canceled as
// soon as the execution observes it. Cancel reports whether the job was
// still pending (false once it has finished — including the race where
// the execution completes while Cancel is in flight, in which case the
// result stands). Note that jobs are coalesced by content hash: canceling
// a job cancels it for every submitter that shares it.
func (p *Pool) Cancel(j *Job) bool {
	if j == nil {
		return false
	}
	p.mu.Lock()
	select {
	case <-j.done:
		p.mu.Unlock()
		return false
	default:
	}
	j.canceled = true
	for i, q := range p.queue {
		if q == j {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			delete(p.inflight, j.Hash)
			p.mu.Unlock()
			atomic.AddInt64(&p.m.canceled, 1)
			j.failState(StateCanceled, ErrCanceled)
			p.emit(EventCanceled, j.Spec, ErrCanceled)
			return true
		}
	}
	cancel := j.cancelFn
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.execute(j)
	}
}

// execute runs one cache-missed job to completion: bounded attempts with
// panic recovery and timeout, then result publication.
func (p *Pool) execute(j *Job) {
	// A cancel may have landed between dequeue and here (the worker holds
	// no lock while picking the job up).
	p.mu.Lock()
	if j.canceled {
		p.mu.Unlock()
		p.finish(j, nil, ErrCanceled)
		p.emit(EventCanceled, j.Spec, ErrCanceled)
		return
	}
	p.mu.Unlock()

	// The job's own context layers per-job cancellation over the pool's
	// base context; Cancel aborts this job alone, Shutdown aborts all.
	jobCtx, jobCancel := context.WithCancel(p.baseCtx)
	defer jobCancel()
	p.mu.Lock()
	j.cancelFn = jobCancel
	p.mu.Unlock()

	j.state.Store(StateRunning)
	atomic.AddInt64(&p.m.running, 1)
	p.emit(EventStarted, j.Spec, nil)

	var res *Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = p.attempt(jobCtx, j.Spec)
		if err == nil || !p.retryable(j.Spec, err) || attempt >= retries {
			break
		}
		atomic.AddInt64(&p.m.retries, 1)
		p.emit(EventRetried, j.Spec, err)
	}
	atomic.AddInt64(&p.m.running, -1)
	atomic.AddInt64(&p.m.executed, 1)

	if err != nil {
		p.finish(j, nil, err)
		if errors.Is(j.err, ErrCanceled) {
			p.emit(EventCanceled, j.Spec, j.err)
		} else {
			p.emit(EventFailed, j.Spec, err)
		}
		return
	}
	if p.cfg.Cache != nil {
		p.cfg.Cache.Put(j.Hash, res)
	}
	p.finish(j, res, nil)
	p.emit(EventDone, j.Spec, nil)
}

// attempt runs the exec function once with panic recovery and the
// per-attempt timeout. The exec call runs in its own goroutine so a hung
// run cannot wedge the worker past the deadline (the abandoned goroutine
// finishes in the background and is discarded).
func (p *Pool) attempt(jobCtx context.Context, spec Spec) (*Result, error) {
	ctx := jobCtx
	cancel := context.CancelFunc(func() {})
	if p.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.cfg.Timeout)
	}
	defer cancel()

	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if v := recover(); v != nil {
				atomic.AddInt64(&p.m.panics, 1)
				ch <- outcome{nil, &PanicError{Value: v, Stack: debug.Stack()}}
			}
		}()
		res, err := p.cfg.Exec(ctx, spec)
		ch <- outcome{res, err}
	}()

	select {
	case out := <-ch:
		atomic.AddInt64(&p.m.execNanos, int64(time.Since(start)))
		if out.err == nil && out.res != nil {
			out.res.ExecSeconds = time.Since(start).Seconds()
		}
		return out.res, out.err
	case <-ctx.Done():
		atomic.AddInt64(&p.m.execNanos, int64(time.Since(start)))
		return nil, fmt.Errorf("runner: job %s: %w", spec, ctx.Err())
	}
}

// retryable reports whether a failed attempt should be retried: panics
// always are (the crash may be load-dependent), as are failures of jobs
// using the noise model; timeouts are not, since the timed-out attempt
// may still be running.
func (p *Pool) retryable(spec Spec, err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	return spec.Noise > 0
}

func (p *Pool) finish(j *Job, res *Result, err error) {
	p.mu.Lock()
	delete(p.inflight, j.Hash)
	canceled := j.canceled
	p.mu.Unlock()
	if err != nil {
		// A failure after a cancel request — whether ErrCanceled directly
		// or the attempt context's cancellation — finishes canceled, not
		// failed.
		if canceled {
			atomic.AddInt64(&p.m.canceled, 1)
			j.failState(StateCanceled, ErrCanceled)
			return
		}
		atomic.AddInt64(&p.m.failed, 1)
		j.fail(err)
		return
	}
	atomic.AddInt64(&p.m.done, 1)
	j.result = res
	j.state.Store(StateDone)
	close(j.done)
}

func (p *Pool) emit(t EventType, spec Spec, err error) {
	if p.cfg.OnEvent == nil {
		return
	}
	s := p.m.snapshot()
	p.cfg.OnEvent(Event{
		Type:    t,
		Spec:    spec,
		Done:    s.Done + s.Failed + s.Canceled,
		Total:   s.Submitted,
		HitRate: s.HitRate(),
		Err:     err,
	})
}
