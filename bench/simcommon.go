package main

import (
	"fmt"
	"time"

	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/runner"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupSpans are the host times of one replay of core.NewSimulation's public
// call sequence, one span per call, followed by the real NewSimulation.
type setupSpans struct {
	levelMs, assignMs, compileMs, newsimMs float64
	compileAllocs                          float64
}

// selfMs is NewSimulation's time not covered by the replayed children:
// machine, communicator and scheduler construction and the initial-condition
// fill. The children run warm in the real call, so this is a lower bound.
func (s setupSpans) selfMs() float64 {
	self := s.newsimMs - s.levelMs - s.assignMs - s.compileMs
	if self < 0 {
		return 0
	}
	return self
}

// add accumulates another replay's spans (for sums over several cases).
func (s *setupSpans) add(o setupSpans) {
	s.levelMs += o.levelMs
	s.assignMs += o.assignMs
	s.compileMs += o.compileMs
	s.compileAllocs += o.compileAllocs
	s.newsimMs += o.newsimMs
}

// replaySetup performs grid.NewUnitCubeLevel, loadbalancer.AssignWithLayout
// and one taskgraph.Compile per rank — exactly what NewSimulation does
// inside — timing each, then times NewSimulation itself and returns the
// simulation it built.
func replaySetup(cfg core.Config, prob core.Problem) (setupSpans, *core.Simulation, error) {
	var sp setupSpans
	t0 := time.Now()
	level, err := grid.NewUnitCubeLevel(cfg.Cells, cfg.PatchCounts)
	if err != nil {
		return sp, nil, err
	}
	t1 := time.Now()
	assign, err := loadbalancer.AssignWithLayout(cfg.Balancer, level.Layout, cfg.NumCGs)
	if err != nil {
		return sp, nil, err
	}
	t2 := time.Now()
	m0 := mallocs()
	t3 := time.Now()
	for r := 0; r < cfg.NumCGs; r++ {
		if _, err := taskgraph.Compile(level, prob.Tasks, assign, r); err != nil {
			return sp, nil, err
		}
	}
	t4 := time.Now()
	sp.compileAllocs = float64(mallocs() - m0)
	t5 := time.Now()
	s, err := core.NewSimulation(cfg, prob)
	if err != nil {
		return sp, nil, err
	}
	sp.newsimMs = ms(time.Since(t5))
	sp.levelMs, sp.assignMs, sp.compileMs = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t4.Sub(t3))
	return sp, s, nil
}

// replayCases builds each spec with replaySetup, runs its steps, and returns
// the summed setup spans and the summed run time in milliseconds.
func replayCases(specs []runner.Spec) (setupSpans, float64, error) {
	var spans setupSpans
	var runMs float64
	for _, spec := range specs {
		cfg, prob, err := experiments.SpecConfig(spec)
		if err != nil {
			return spans, 0, err
		}
		sp, s, err := replaySetup(cfg, prob)
		if err != nil {
			return spans, 0, err
		}
		_, el, err := window(s, spec.Steps)
		if err != nil {
			return spans, 0, err
		}
		spans.add(sp)
		runMs += ms(el)
	}
	return spans, runMs, nil
}

// setReplayedCases reports replayCases' sums as the setup metrics.
func setReplayedCases(m *measured, specs []runner.Spec) error {
	spans, runMs, err := replayCases(specs)
	if err != nil {
		return err
	}
	setSetupSpans(m, []setupSpans{spans})
	m.set("core.setup_frac", spans.newsimMs/(spans.newsimMs+runMs))
	return nil
}

// setSetupSpans reports the median of several replays.
func setSetupSpans(m *measured, spans []setupSpans) {
	col := func(f func(setupSpans) float64) float64 {
		xs := make([]float64, len(spans))
		for i, s := range spans {
			xs[i] = f(s)
		}
		return median(xs)
	}
	m.set("grid.level_ms", col(func(s setupSpans) float64 { return s.levelMs }))
	m.set("loadbalancer.assign_ms", col(func(s setupSpans) float64 { return s.assignMs }))
	m.set("taskgraph.compile_ms", col(func(s setupSpans) float64 { return s.compileMs }))
	m.set("taskgraph.compile_allocs", col(func(s setupSpans) float64 { return s.compileAllocs }))
	m.set("core.newsim_ms", col(func(s setupSpans) float64 { return s.newsimMs }))
	m.set("core.newsim_self_ms", col(setupSpans.selfMs))
}

// eventsExecuted sums EventsExecuted over the simulation's distinct engines
// (one under the serial engine, one per shard otherwise).
func eventsExecuted(s *core.Simulation) uint64 {
	seen := map[*sim.Engine]bool{}
	var n uint64
	for i := 0; i < s.Cfg.NumCGs; i++ {
		e := s.Machine.CG(i).Engine()
		if !seen[e] {
			seen[e] = true
			n += e.EventsExecuted()
		}
	}
	return n
}

// stepCounts are exact per-step counts and simulated results of one Run
// window, read from core.Result.
type stepCounts struct {
	events, bytes, tasks, offloads, dmaOps, cells float64
	simSPerStep, gflops, idleFrac, commFrac       float64
}

// window runs n steps and returns the result with its host time.
func window(s *core.Simulation, n int) (*core.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := s.Run(n)
	return res, time.Since(t0), err
}

// countedWindow runs n steps and derives the per-step counts. RankStats in a
// Result are cumulative over the simulation's life, so the previous window's
// result is needed to difference them (nil for the first window).
func countedWindow(s *core.Simulation, n int, prev *core.Result) (stepCounts, error) {
	ev0 := eventsExecuted(s)
	res, err := s.Run(n)
	if err != nil {
		return stepCounts{}, err
	}
	steps := float64(n)
	c := stepCounts{
		events:      float64(eventsExecuted(s)-ev0) / steps,
		bytes:       float64(res.BytesOnWire) / steps,
		offloads:    float64(res.Counters.Offloads) / steps,
		dmaOps:      float64(res.Counters.DMAOps) / steps,
		cells:       float64(res.Counters.CellsComputed) / steps,
		simSPerStep: float64(res.PerStep),
		gflops:      res.Gflops,
	}
	tasks := int64(0)
	for r, st := range res.RankStats {
		tasks += st.TasksRun
		if prev != nil {
			tasks -= prev.RankStats[r].TasksRun
		}
	}
	c.tasks = float64(tasks) / steps
	c.idleFrac, c.commFrac = rankTimeFracs(res, prev)
	return c, nil
}

// rankTimeFracs returns the share of the ranks' virtual time spent idle and
// in communication over res's segment. RankStats are cumulative, so prev (the
// previous segment's result, nil for the first) is subtracted.
func rankTimeFracs(res, prev *core.Result) (idle, comm float64) {
	for r, st := range res.RankStats {
		idle += float64(st.IdleTime)
		comm += float64(st.CommTime)
		if prev != nil {
			idle -= float64(prev.RankStats[r].IdleTime)
			comm -= float64(prev.RankStats[r].CommTime)
		}
	}
	total := float64(res.WallTime) * float64(len(res.RankStats))
	if total == 0 {
		return 0, 0
	}
	return idle / total, comm / total
}

func setStepCounts(m *measured, c stepCounts) {
	m.set("sim.events_per_step", c.events)
	m.set("mpisim.bytes_per_step", c.bytes)
	m.set("scheduler.tasks_per_step", c.tasks)
	m.set("sw26010.offloads_per_step", c.offloads)
	m.set("sw26010.dma_ops_per_step", c.dmaOps)
	m.set("sw26010.cells_per_step", c.cells)
	m.set("model.sim_s_per_step", c.simSPerStep)
	m.set("model.gflops", c.gflops)
	m.set("model.idle_frac", c.idleFrac)
	m.set("model.comm_frac", c.commFrac)
}

// setHostFractions reports a folded CPU profile as host.<layer>_frac.
func setHostFractions(m *measured, stacks []stack) {
	for layer, frac := range foldByLayer(stacks) {
		m.set(fmt.Sprintf("host.%s_frac", layer), frac)
	}
}
