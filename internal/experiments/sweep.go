package experiments

import (
	"context"
	"fmt"
	"sync"

	"sunuintah/internal/core"
	"sunuintah/internal/runner"
)

// CaseKey identifies one experimental cell.
type CaseKey struct {
	Problem string
	CGs     int
	Variant string
}

// CaseResult is a memoised run outcome. Infeasible cells (the paper's
// memory-allocation crashes) carry Feasible == false.
type CaseResult struct {
	Key      CaseKey
	Feasible bool
	Result   *core.Result
}

// Sweep runs and memoises experimental cells on top of a runner pool:
// independent cells execute concurrently across the pool's workers, and
// the pool's content-addressed cache makes repeated artifacts (and, with
// a disk cache, repeated invocations) near-free. Sweep is safe for
// concurrent use.
type Sweep struct {
	opt     Options
	pool    *Pool
	ownPool bool

	mu   sync.Mutex
	memo map[CaseKey]*CaseResult
	jobs map[CaseKey][]*runner.Job // pending submissions, one job per repeat
	// Progress, when non-nil, is called before each fresh (non-memoised)
	// run. For richer progress (done/total, hit rate) attach an event
	// handler to the pool instead.
	Progress func(key CaseKey)
}

// NewSweep creates a sweep with its own pool: opt.Jobs workers (default
// GOMAXPROCS) and an in-memory result cache. Use NewSweepWithPool to
// share a pool (and its cache) across sweeps or with a server.
func NewSweep(opt Options) *Sweep {
	s := NewSweepWithPool(opt, NewPool(opt.Jobs, runner.NewMemoryCache(0), nil))
	s.ownPool = true
	return s
}

// NewSweepWithPool creates a sweep executing on an existing pool.
func NewSweepWithPool(opt Options, pool *Pool) *Sweep {
	return &Sweep{
		opt:  opt,
		pool: pool,
		memo: map[CaseKey]*CaseResult{},
		jobs: map[CaseKey][]*runner.Job{},
	}
}

// Pool returns the sweep's underlying runner pool.
func (s *Sweep) Pool() *Pool { return s.pool }

// Close shuts down the sweep's pool if the sweep owns it.
func (s *Sweep) Close() {
	if s.ownPool {
		s.pool.Close()
	}
}

// specs expands one cell into its job specs: the paper's best-of-k
// protocol turns a noisy case into k jobs with distinct seeds, reduced by
// min at collection time.
func (s *Sweep) specs(prob ProblemSpec, cgs int, v Variant) []runner.Spec {
	repeats := s.opt.Repeats
	if repeats <= 1 || s.opt.Noise == 0 {
		repeats = 1
	}
	out := make([]runner.Spec, repeats)
	for rep := 0; rep < repeats; rep++ {
		out[rep] = SpecFor(prob, cgs, v, s.opt, uint64(rep+1))
	}
	return out
}

// submit returns the cell's jobs, submitting them on first use: each
// cell is handed to the pool exactly once per sweep, whether it is first
// touched by Prefetch or by Run.
func (s *Sweep) submit(key CaseKey, prob ProblemSpec, cgs int, v Variant) []*runner.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, done := s.memo[key]; done {
		return nil
	}
	if jobs, ok := s.jobs[key]; ok {
		return jobs
	}
	specs := s.specs(prob, cgs, v)
	jobs := make([]*runner.Job, len(specs))
	for i, spec := range specs {
		jobs[i] = s.pool.Submit(spec)
	}
	s.jobs[key] = jobs
	return jobs
}

// Prefetch submits a cell's jobs without waiting for them, so later Run
// calls collect already-executing work. Memoised cells are skipped; the
// pool dedups everything else.
func (s *Sweep) Prefetch(prob ProblemSpec, cgs int, v Variant) {
	key := CaseKey{prob.Name, cgs, v.Name}
	s.submit(key, prob, cgs, v)
}

// PrefetchSeries submits a whole scaling series (every CG count from the
// problem's minimum upward) without waiting.
func (s *Sweep) PrefetchSeries(prob ProblemSpec, v Variant) {
	for _, cgs := range CGCounts {
		if cgs < prob.MinCGs {
			continue
		}
		s.Prefetch(prob, cgs, v)
	}
}

// Run returns the memoised result of one cell, executing it on the pool
// on first use. Out-of-memory failures are recorded as infeasible rather
// than errors, mirroring the paper's starred Table III rows.
func (s *Sweep) Run(prob ProblemSpec, cgs int, v Variant) (*CaseResult, error) {
	key := CaseKey{prob.Name, cgs, v.Name}
	s.mu.Lock()
	if r, ok := s.memo[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	_, pending := s.jobs[key]
	progress := s.Progress
	s.mu.Unlock()
	if progress != nil && !pending {
		progress(key)
	}

	jobs := s.submit(key, prob, cgs, v)
	if jobs == nil { // memoised by a concurrent Run between the checks
		s.mu.Lock()
		r := s.memo[key]
		s.mu.Unlock()
		return r, nil
	}
	results := make([]*runner.Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			return nil, fmt.Errorf("case %v: %w", key, err)
		}
		results[i] = res
	}
	best := runner.MinResult(results)

	r := &CaseResult{Key: key, Feasible: best.Feasible, Result: best.Sim}
	s.mu.Lock()
	if prev, ok := s.memo[key]; ok {
		r = prev // a concurrent Run won the memoisation race
	} else {
		s.memo[key] = r
		delete(s.jobs, key)
	}
	s.mu.Unlock()
	return r, nil
}

// PerStepSeconds returns the wall time per timestep of a feasible cell.
func (r *CaseResult) PerStepSeconds() float64 {
	if !r.Feasible {
		return 0
	}
	return float64(r.Result.PerStep)
}

// ScalingSeries runs a problem with one variant across every CG count
// from the problem's minimum to 128 and returns the feasible results
// keyed by CG count. The whole series is prefetched before collection, so
// its points execute concurrently.
func (s *Sweep) ScalingSeries(prob ProblemSpec, v Variant) (map[int]*CaseResult, error) {
	s.PrefetchSeries(prob, v)
	out := map[int]*CaseResult{}
	for _, cgs := range CGCounts {
		if cgs < prob.MinCGs {
			continue
		}
		r, err := s.Run(prob, cgs, v)
		if err != nil {
			return nil, err
		}
		if r.Feasible {
			out[cgs] = r
		}
	}
	return out, nil
}

// Improvement is the paper's asynchronous-scheduler metric
// (T_sync - T_async) / T_async, in percent.
func Improvement(tSync, tAsync float64) float64 {
	return (tSync - tAsync) / tAsync * 100
}

// StrongScalingEfficiency is T(min)*min / (T(n)*n), in percent.
func StrongScalingEfficiency(tMin float64, minCGs int, tN float64, nCGs int) float64 {
	return tMin * float64(minCGs) / (tN * float64(nCGs)) * 100
}
