package experiments

import (
	"context"
	"fmt"

	"sunuintah/internal/core"
	"sunuintah/internal/runner"
)

// CaseKey identifies one experimental cell.
type CaseKey struct {
	Problem string
	CGs     int
	Variant string
}

// CaseResult is one cell's run outcome. Infeasible cells (the paper's
// memory-allocation crashes) carry Feasible == false.
type CaseResult struct {
	Key      CaseKey
	Feasible bool
	Result   *core.Result
}

// Sweep runs experimental cells on top of a runner pool: independent
// cells execute concurrently across the pool's workers, and the pool's
// content-addressed cache is the sweep's memo, so repeated artifacts (and,
// with a disk cache, repeated invocations) are near-free. Sweep keeps no
// state of its own and is safe for concurrent use.
type Sweep struct {
	opt     Options
	pool    *Pool
	ownPool bool
}

// NewSweep creates a sweep with its own pool: GOMAXPROCS workers and an
// in-memory result cache. Use NewSweepWithPool to choose the worker count
// or to share a pool (and its cache) across sweeps or with a server.
func NewSweep(opt Options) *Sweep {
	s := NewSweepWithPool(opt, NewPool(0, runner.NewMemoryCache(0), nil))
	s.ownPool = true
	return s
}

// NewSweepWithPool creates a sweep executing on an existing pool. The pool
// must have a cache: it is the sweep's only memo, and without one every
// Run of a cell executes it again.
func NewSweepWithPool(opt Options, pool *Pool) *Sweep {
	return &Sweep{opt: opt, pool: pool}
}

// Pool returns the sweep's underlying runner pool.
func (s *Sweep) Pool() *Pool { return s.pool }

// Close shuts down the sweep's pool if the sweep owns it.
func (s *Sweep) Close() {
	if s.ownPool {
		s.pool.Close()
	}
}

// submit hands a cell's best-of-k repeat set to the pool, which coalesces
// pending twins and answers cached ones at once.
func (s *Sweep) submit(prob ProblemSpec, cgs int, v Variant) []*runner.Job {
	specs := runner.Repeats(SpecFor(prob, cgs, v, s.opt, 0), s.opt.Repeats)
	jobs := make([]*runner.Job, len(specs))
	for i, spec := range specs {
		jobs[i] = s.pool.Submit(spec)
	}
	return jobs
}

// Prefetch submits a cell's jobs without waiting for them, so later Run
// calls collect already-executing work.
func (s *Sweep) Prefetch(prob ProblemSpec, cgs int, v Variant) {
	s.submit(prob, cgs, v)
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

// Run returns the result of one cell: the fastest of its repeats, from the
// pool's cache or executed on first use. Out-of-memory failures are
// recorded as infeasible rather than errors, mirroring the paper's starred
// Table III rows.
func (s *Sweep) Run(prob ProblemSpec, cgs int, v Variant) (*CaseResult, error) {
	key := CaseKey{prob.Name, cgs, v.Name}
	jobs := s.submit(prob, cgs, v)
	results := make([]*runner.Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			return nil, fmt.Errorf("case %v: %w", key, err)
		}
		results[i] = res
	}
	best := runner.MinResult(results)
	return &CaseResult{Key: key, Feasible: best.Feasible, Result: best.Sim}, nil
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
