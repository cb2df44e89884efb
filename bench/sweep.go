package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/rng"
	"sunuintah/internal/runner"
)

//go:embed paper_ref.json
var paperRefJSON []byte

// paperRef holds the paper's numbers as quoted in EXPERIMENTS.md and the
// reproduction's frozen distance from them.
type paperRef struct {
	// TableV maps variant → [smallest, largest problem] strong-scaling
	// efficiency in percent (min CGs → 128 CGs).
	TableV map[string][2]float64 `json:"table_v_corner_efficiency_pct"`
	// Async improvement: Table VI average and best, Table VII best (percent).
	TableVIAvg   float64 `json:"table_vi_average_pct"`
	TableVIBest  float64 `json:"table_vi_best_pct"`
	TableVIIBest float64 `json:"table_vii_best_pct"`
	// MaxErrPP is the largest model.paper_err_pp the benchmark accepts: the
	// value measured when the benchmark was defined, plus rounding slack.
	MaxErrPP float64 `json:"max_err_pp"`
}

func loadPaperRef() (paperRef, error) {
	var ref paperRef
	err := json.Unmarshal(paperRefJSON, &ref)
	return ref, err
}

// sweepCase is one cell of the evaluation matrix.
type sweepCase struct {
	prob    experiments.ProblemSpec
	cgs     int
	variant experiments.Variant
	spec    runner.Spec
}

type caseKey struct {
	problem string
	cgs     int
	variant string
}

func (c sweepCase) key() caseKey { return caseKey{c.prob.Name, c.cgs, c.variant.Name} }

// sweepCases lists the paper's matrix — every problem at every CG count from
// its Table III minimum, times the five variants (250 cases of 10 steps) —
// in an order drawn from the seed.
func sweepCases(o runOpts) []sweepCase {
	opt := experiments.Options{Steps: experiments.Steps}
	problems, cgCounts := experiments.Problems, experiments.CGCounts
	if o.tiny {
		opt.Steps = 1
		problems = []experiments.ProblemSpec{problems[0], problems[len(problems)-1]}
		cgCounts = []int{1, 8, 128}
	}
	var cases []sweepCase
	for _, prob := range problems {
		for _, cgs := range cgCounts {
			if cgs < prob.MinCGs {
				continue
			}
			for _, v := range experiments.Variants {
				cases = append(cases, sweepCase{prob, cgs, v, experiments.SpecFor(prob, cgs, v, opt, 0)})
			}
		}
	}
	order := rng.New(rng.SubSeed(o.seed, 1, 0))
	for i := len(cases) - 1; i > 0; i-- {
		j := order.Intn(i + 1)
		cases[i], cases[j] = cases[j], cases[i]
	}
	return cases
}

// sweepPass submits every case to the pool from nproc closed-loop
// submitters and returns the results, each case's Pool.Run latency in
// milliseconds, and the pass's wall time.
func sweepPass(pool *experiments.Pool, cases []sweepCase, m *measured) (map[caseKey]*runner.Result, []float64, time.Duration) {
	results := make([]*runner.Result, len(cases))
	errs := make([]error, len(cases))
	latMs := make([]float64, len(cases))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cases) {
					return
				}
				c0 := time.Now()
				results[i], errs[i] = pool.Run(context.Background(), cases[i].spec)
				latMs[i] = ms(time.Since(c0))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	byKey := map[caseKey]*runner.Result{}
	for i, c := range cases {
		m.attempted++
		switch {
		case errs[i] != nil:
			m.fail("matrix-sweep: %s: %v", c.spec, errs[i])
		case !results[i].Feasible:
			m.fail("matrix-sweep: %s infeasible, Table III says feasible", c.spec)
		default:
			byKey[c.key()] = results[i]
		}
	}
	return byKey, latMs, wall
}

// checkInfeasible runs each starred problem one CG-count below its Table III
// minimum and expects the simulated out-of-memory crash.
func checkInfeasible(o runOpts, m *measured) {
	if o.tiny {
		return
	}
	v, _ := experiments.VariantByName("acc.async")
	for _, prob := range experiments.Problems {
		if prob.MinCGs <= 1 {
			continue
		}
		spec := experiments.SpecFor(prob, prob.MinCGs/2, v, experiments.Options{Steps: 1}, 0)
		res, err := experiments.Exec(context.Background(), spec)
		m.attempted++
		if err != nil {
			m.fail("matrix-sweep: %s: %v", spec, err)
		} else if res.Feasible {
			m.fail("matrix-sweep: %s feasible, Table III says out of memory", spec)
		}
	}
}

// tableVVariants are Table V's columns.
var tableVVariants = []string{"acc.sync", "acc.async", "acc_simd.sync", "acc_simd.async"}

// paperNumbers are the reproduction's counterparts of paperRef.
type paperNumbers struct {
	tableV                 map[string][2]float64
	viAvg, viBest, viiBest float64
}

// derivePaperNumbers computes Table V's corner efficiencies and the Table
// VI/VII improvement summaries from the sweep's results.
func derivePaperNumbers(res map[caseKey]*runner.Result) (paperNumbers, error) {
	perStep := func(prob string, cgs int, variant string) (float64, error) {
		r, ok := res[caseKey{prob, cgs, variant}]
		if !ok {
			return 0, fmt.Errorf("case %s@%d %s missing from the sweep", prob, cgs, variant)
		}
		return r.PerStepSeconds(), nil
	}
	n := paperNumbers{tableV: map[string][2]float64{}}
	probs := experiments.Problems
	corners := []experiments.ProblemSpec{probs[0], probs[len(probs)-1]}
	for _, variant := range tableVVariants {
		var eff [2]float64
		for i, prob := range corners {
			tMin, err := perStep(prob.Name, prob.MinCGs, variant)
			if err != nil {
				return n, err
			}
			tMax, err := perStep(prob.Name, 128, variant)
			if err != nil {
				return n, err
			}
			eff[i] = experiments.StrongScalingEfficiency(tMin, prob.MinCGs, tMax, 128)
		}
		n.tableV[variant] = eff
	}
	improvement := func(syncName, asyncName string) (avg, best float64, err error) {
		best = math.Inf(-1)
		cells := 0
		for _, prob := range probs {
			for _, cgs := range experiments.CGCounts {
				if cgs < prob.MinCGs {
					continue
				}
				ts, err := perStep(prob.Name, cgs, syncName)
				if err != nil {
					return 0, 0, err
				}
				ta, err := perStep(prob.Name, cgs, asyncName)
				if err != nil {
					return 0, 0, err
				}
				imp := experiments.Improvement(ts, ta)
				avg += imp
				cells++
				best = math.Max(best, imp)
			}
		}
		return avg / float64(cells), best, nil
	}
	var err error
	if n.viAvg, n.viBest, err = improvement("acc.sync", "acc.async"); err != nil {
		return n, err
	}
	_, n.viiBest, err = improvement("acc_simd.sync", "acc_simd.async")
	return n, err
}

// paperErrPP is the mean absolute difference, in percentage points, between
// the reproduction's eleven headline numbers and the paper's.
func paperErrPP(n paperNumbers, ref paperRef) float64 {
	var sum float64
	count := 0
	for _, variant := range tableVVariants { // fixed order: the sum must repeat bit for bit
		got, want := n.tableV[variant], ref.TableV[variant]
		sum += math.Abs(got[0]-want[0]) + math.Abs(got[1]-want[1])
		count += 2
	}
	sum += math.Abs(n.viAvg-ref.TableVIAvg) + math.Abs(n.viBest-ref.TableVIBest) + math.Abs(n.viiBest-ref.TableVIIBest)
	return sum / float64(count+3)
}

// checkPaper derives the paper numbers and fails the run when the model has
// drifted further from the paper than the frozen bound.
func checkPaper(o runOpts, m *measured, res map[caseKey]*runner.Result) (paperNumbers, float64, error) {
	if o.tiny || len(m.failures) > 0 {
		return paperNumbers{}, 0, nil // partial matrix: the tables cannot be derived
	}
	ref, err := loadPaperRef()
	if err != nil {
		return paperNumbers{}, 0, err
	}
	n, err := derivePaperNumbers(res)
	if err != nil {
		return n, 0, err
	}
	errPP := paperErrPP(n, ref)
	m.attempted++
	if !(errPP <= ref.MaxErrPP) {
		m.fail("matrix-sweep: paper_err_pp %.4f exceeds the frozen %.4f", errPP, ref.MaxErrPP)
	}
	m.note("matrix-sweep: paper_err_pp %.4f (mean |ours − paper| over Table V corners and Table VI/VII summaries; the model is otherwise validated on shapes only)", errPP)
	return n, errPP, nil
}

// sumSetup builds every case's simulation once, single-threaded, outside
// the timed sweep, and returns the total host seconds.
func sumSetup(cases []sweepCase) (float64, error) {
	var total time.Duration
	for _, c := range cases {
		cfg, prob, err := experiments.SpecConfig(c.spec)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := core.NewSimulation(cfg, prob); err != nil {
			return 0, fmt.Errorf("%s: %w", c.spec, err)
		}
		total += time.Since(t0)
	}
	return total.Seconds(), nil
}

func runSweep(o runOpts, m *measured) error {
	cases := sweepCases(o)
	if o.trace {
		return traceSweep(o, m, cases)
	}
	setup, err := sumSetup(cases)
	if err != nil {
		return err
	}
	m.set("setup_s", setup)
	checkInfeasible(o, m)

	pool := experiments.NewPool(runtime.GOMAXPROCS(0), runner.NewMemoryCache(0), nil)
	defer pool.Close()
	runtime.GC()
	cpu0 := cpuSeconds()
	res, latMs, wall := sweepPass(pool, cases, m)
	cpu := cpuSeconds() - cpu0
	m.set("work_per_s", float64(len(cases))/wall.Seconds())
	m.set("op_ms_p50", median(latMs))
	m.set("op_ms_tail", percentile(latMs, 0.90))
	m.set("cpu_ms_per_op", 1000*cpu/float64(len(cases)))

	// The same specs again: every one must now be a cache hit.
	before := pool.Metrics()
	_, hitMs, _ := sweepPass(pool, cases, m)
	if hits := pool.Metrics().CacheHits - before.CacheHits; hits != int64(len(cases)) {
		m.fail("matrix-sweep: resubmission pass hit the cache %d times of %d", hits, len(cases))
	}
	if _, _, err := checkPaper(o, m, res); err != nil {
		return err
	}
	m.note("matrix-sweep: %d cases x %d steps in %.2f s on %d submitters, cold cache; hit pass p50 %.1f us; op = one case, tail = p90",
		len(cases), cases[0].spec.Steps, wall.Seconds(), runtime.GOMAXPROCS(0), 1000*median(hitMs))
	return nil
}

// traceSweep is the traced run: the whole sweep under a CPU profile with
// pool counters, a seeded 1-in-5 sample of cases run directly with setup
// spans, and a smaller paired sample for the profiling overhead.
func traceSweep(o runOpts, m *measured, cases []sweepCase) error {
	pool := experiments.NewPool(runtime.GOMAXPROCS(0), runner.NewMemoryCache(0), nil)
	defer pool.Close()
	var prof cpuProfile
	runtime.GC()
	m0 := mallocs()
	if err := prof.start(); err != nil {
		return err
	}
	res, _, wall := sweepPass(pool, cases, m)
	if err := prof.stop(); err != nil {
		return err
	}
	m.set("host.allocs_per_op", float64(mallocs()-m0)/float64(len(cases)))
	m.set("host.peak_rss_mb", peakRSSMB(os.Getpid()))
	setHostFractions(m, prof.stacks)
	cold := pool.Metrics()
	_, hitMs, _ := sweepPass(pool, cases, m)
	warm := pool.Metrics()
	m.set("runner.exec_s", cold.ExecSeconds)
	m.set("runner.saved_s", warm.SavedSeconds)
	m.set("runner.cache_hit_frac", warm.HitRate())
	m.set("runner.coalesced", float64(warm.Coalesced))
	m.set("runner.hit_us_p50", 1000*median(hitMs))

	n, errPP, err := checkPaper(o, m, res)
	if err != nil {
		return err
	}
	m.set("model.paper_err_pp", errPP)
	m.set("model.async_gain_pct", n.viAvg)
	// The paper's headline case (Figure 9): the largest problem at 128 CGs.
	last := experiments.Problems[len(experiments.Problems)-1]
	if r, ok := res[caseKey{last.Name, 128, "acc_simd.async"}]; ok {
		sim := r.Sim
		m.set("model.sim_s_per_step", float64(sim.PerStep))
		m.set("model.gflops", sim.Gflops)
		idle, comm := rankTimeFracs(sim, nil)
		m.set("model.idle_frac", idle)
		m.set("model.comm_frac", comm)
	}

	// Sample: every fifth case of the seeded order, built and run directly
	// with a span per setup call.
	var sampled []runner.Spec
	for i := 0; i < len(cases); i += 5 {
		sampled = append(sampled, cases[i].spec)
	}
	if err := setReplayedCases(m, sampled); err != nil {
		return err
	}
	m.attempted += len(sampled)

	// Profiling overhead on a 1-in-25 sample, each case built and run plain
	// and profiled back to back.
	var plainMs, tracedMs float64
	var overheadProf cpuProfile
	for i := 0; i < len(sampled); i += 5 {
		cfg, prob, err := experiments.SpecConfig(sampled[i])
		if err != nil {
			return err
		}
		err = overheadProf.alternate(1, func(profiled bool) error {
			t0 := time.Now()
			s, err := core.NewSimulation(cfg, prob)
			if err == nil {
				_, err = s.Run(sampled[i].Steps)
			}
			if profiled {
				tracedMs += ms(time.Since(t0))
			} else {
				plainMs += ms(time.Since(t0))
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	m.set("host.trace_overhead_frac", 1-plainMs/tracedMs)
	m.note("matrix-sweep traced: %d cases in %.2f s under the profiler (%d samples); setup spans summed over a %d-case sample; overhead from %d paired cases",
		len(cases), wall.Seconds(), len(prof.stacks), len(sampled), (len(sampled)+4)/5)
	return nil
}
