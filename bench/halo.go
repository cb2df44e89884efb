package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"time"

	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/obs"
	"sunuintah/internal/runner"
	"sunuintah/internal/sim"
)

// haloShards is the sharded engine configuration stepped beside the serial
// one on the same input.
const haloShards = 4

// haloWindow is the number of timesteps per timed Run call.
const haloWindow = 5

func haloSpec(o runOpts) runner.Spec {
	if o.tiny {
		return runner.Spec{Cells: "32x32x64", Layout: "4x4x2", CGs: 32, Variant: "acc_simd.async", Steps: haloWindow}
	}
	return runner.Spec{Problem: "32x32x512", CGs: 128, Variant: "acc_simd.async", Steps: haloWindow}
}

// haloPair is the workload's state: the same timing-only case built once on
// the serial engine and once on the sharded engine.
type haloPair struct {
	serial  *core.Simulation
	sharded *core.Simulation
	// warmup is the serial simulation's first-window result; RankStats are
	// cumulative, so later windows difference against it.
	warmup *core.Result
}

// newHaloPair builds both simulations, runs the warm-up window on each and
// checks the two first-window results are byte-identical (the engines'
// contract; self-contained, so a model recalibration does not break it).
func newHaloPair(cfg core.Config, prob core.Problem, m *measured) (*haloPair, error) {
	p := &haloPair{}
	var err error
	if p.serial, err = core.NewSimulation(cfg, prob); err != nil {
		return nil, err
	}
	shCfg := cfg
	shCfg.Shards = haloShards
	if p.sharded, err = core.NewSimulation(shCfg, prob); err != nil {
		return nil, err
	}
	var first [2][]byte
	for i, s := range []*core.Simulation{p.serial, p.sharded} {
		res, err := s.Run(haloWindow)
		if err != nil {
			return nil, err
		}
		if first[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
		if i == 0 {
			p.warmup = res
		}
	}
	m.attempted++
	if !bytes.Equal(first[0], first[1]) {
		m.fail("halo-steady: serial and Shards=%d first-window results differ", haloShards)
	}
	return p, nil
}

// coldBuilds times k cold core.NewSimulation calls and returns the seconds
// each took at the reference host speed, collecting the previous build's
// garbage outside the timing.
func coldBuilds(cfg core.Config, prob core.Problem, k int, calib *calibrator) ([]float64, error) {
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := core.NewSimulation(cfg, prob); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds()*calib.read())
	}
	return out, nil
}

// stepWindows alternates serial and sharded windows until the deadline and
// returns each engine's per-step host times in milliseconds, one per window,
// each pair scaled by the host speed read right after it (calib.go; a nil
// calibrator leaves them as measured).
func (p *haloPair) stepWindows(d time.Duration, m *measured, calib *calibrator) (serial, sharded []float64, err error) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		var pair [2]float64
		for i, s := range []*core.Simulation{p.serial, p.sharded} {
			_, el, err := window(s, haloWindow)
			m.attempted++
			if err != nil {
				return nil, nil, err
			}
			pair[i] = ms(el) / haloWindow
		}
		speed := calib.read()
		serial, sharded = append(serial, pair[0]*speed), append(sharded, pair[1]*speed)
	}
	return serial, sharded, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// stepsPerS converts per-step milliseconds of equal-length windows to a rate.
func stepsPerS(stepMs []float64) float64 {
	if len(stepMs) == 0 {
		return 0
	}
	return 1000 * float64(len(stepMs)) / sum(stepMs)
}

func runHalo(o runOpts, m *measured) error {
	cfg, prob, err := experiments.SpecConfig(haloSpec(o))
	if err != nil {
		return err
	}
	if o.trace {
		return traceHalo(o, m, cfg, prob)
	}
	k := 15
	if o.tiny {
		k = 3
	}
	builds, err := coldBuilds(cfg, prob, k, m.calib)
	if err != nil {
		return err
	}
	m.set("setup_s", median(builds))

	p, err := newHaloPair(cfg, prob, m)
	if err != nil {
		return err
	}
	runtime.GC()
	cpu0, reads0 := cpuSeconds()-m.calib.spent.Seconds(), len(m.calib.speeds)
	serial, sharded, err := p.stepWindows(o.measure(), m, m.calib)
	if err != nil {
		return err
	}
	cpu := (cpuSeconds() - m.calib.spent.Seconds() - cpu0) * median(m.calib.speeds[reads0:])
	all := slices.Concat(serial, sharded)
	steps := float64(len(all) * haloWindow)
	m.set("work_per_s", stepsPerS(all))
	m.set("op_ms_p50", median(all))
	m.set("op_ms_tail", percentile(all, 0.90))
	m.set("cpu_ms_per_op", 1000*cpu/steps)
	m.note("halo-steady: %d windows of %d steps per engine; serial %.2f steps/s, shards%d %.2f steps/s; op = one timestep, tail = p90",
		len(serial), haloWindow, stepsPerS(serial), haloShards, stepsPerS(sharded))
	return nil
}

// traceHalo is the traced run: setup replayed span by span, exact counts,
// CPU profile folded by package over interleaved profiled/unprofiled
// blocks, the observability hook tax, and the engine timed alone.
func traceHalo(o runOpts, m *measured, cfg core.Config, prob core.Problem) error {
	replays := 5
	if o.tiny {
		replays = 2
	}
	var spans []setupSpans
	for i := 0; i < replays; i++ {
		runtime.GC()
		sp, _, err := replaySetup(cfg, prob)
		if err != nil {
			return err
		}
		spans = append(spans, sp)
	}
	setSetupSpans(m, spans)

	p, err := newHaloPair(cfg, prob, m)
	if err != nil {
		return err
	}
	// Exact counts from the first window after warm-up (steps 5..9), always
	// the same window so the numbers repeat bit for bit.
	counts, err := countedWindow(p.serial, haloWindow, p.warmup)
	if err != nil {
		return err
	}
	if _, _, err := window(p.sharded, haloWindow); err != nil {
		return err
	}
	m.attempted += 2
	setStepCounts(m, counts)

	// Profiled and unprofiled blocks alternate so a host slowdown hits both.
	const blocks = 3
	blockLen := time.Duration(float64(o.measure()) * 0.60 / (2 * blocks))
	var prof cpuProfile
	var stepMs [2][2][]float64 // [plain, profiled][serial, sharded] per-step ms
	runtime.GC()
	m0 := mallocs()
	err = prof.alternate(blocks, func(profiled bool) error {
		side := &stepMs[0]
		if profiled {
			side = &stepMs[1]
		}
		s, sh, err := p.stepWindows(blockLen, m, nil)
		side[0], side[1] = append(side[0], s...), append(side[1], sh...)
		return err
	})
	if err != nil {
		return err
	}
	plain := stepMs[0]
	plainAll, tracedAll := slices.Concat(plain[0], plain[1]), slices.Concat(stepMs[1][0], stepMs[1][1])
	m.set("host.allocs_per_op", float64(mallocs()-m0)/float64((len(plainAll)+len(tracedAll))*haloWindow))
	m.set("host.peak_rss_mb", peakRSSMB(os.Getpid()))
	setHostFractions(m, prof.stacks)
	m.set("host.trace_overhead_frac", 1-stepsPerS(tracedAll)/stepsPerS(plainAll))
	m.set("engine.serial_steps_per_s", stepsPerS(plain[0]))
	m.set("engine.sharded_steps_per_s", stepsPerS(plain[1]))
	m.set("sim.us_per_event", 1000*median(plain[0])/counts.events)

	// Observability hook tax: the same case with every probe attached
	// (report assembly off), interleaved with the plain serial simulation.
	obsCfg := cfg
	obsCfg.Obs = &obs.Options{HooksOnly: true}
	hooked, err := core.NewSimulation(obsCfg, prob)
	if err != nil {
		return err
	}
	if _, _, err := window(hooked, haloWindow); err != nil {
		return err
	}
	var plainMs, hookMs []float64
	obsDeadline := time.Now().Add(time.Duration(float64(o.measure()) * 0.15))
	for time.Now().Before(obsDeadline) {
		_, el, err := window(p.serial, haloWindow)
		if err != nil {
			return err
		}
		plainMs = append(plainMs, ms(el))
		if _, el, err = window(hooked, haloWindow); err != nil {
			return err
		}
		hookMs = append(hookMs, ms(el))
		m.attempted += 2
	}
	m.set("obs.overhead_frac", 1-median(plainMs)/median(hookMs))

	probeLen := time.Duration(float64(o.measure()) * 0.05)
	m.set("sim.engine_events_per_s", probeEngine(probeLen))
	m.set("sim.mail_msgs_per_s", probeMail(probeLen))
	m.note("halo-steady traced: %d plain + %d profiled windows, %d profile samples; obs pairs %d",
		len(plainAll), len(tracedAll), len(prof.stacks), len(plainMs))
	return nil
}

// timedRate calls fn (n units of work per call) until d has elapsed and
// returns units per second.
func timedRate(d time.Duration, n int, fn func()) float64 {
	fn() // warm pools and arenas
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		fn()
		calls++
	}
	return float64(n) * float64(calls) / time.Since(t0).Seconds()
}

// probeEngine times the event loop alone: a self-rescheduling chain, the
// same calls cmd/benchgate's sim.events_per_s makes.
func probeEngine(d time.Duration) float64 {
	const n = 100000
	return timedRate(d, n, func() {
		e := sim.NewEngine()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(sim.Microsecond, tick)
			}
		}
		e.After(sim.Microsecond, tick)
		e.Run()
	})
}

// probeMail times batched cross-shard mail alone: post, Flush merge, bulk
// inject, as cmd/benchgate's sim.mail.msgs_per_s does.
func probeMail(d time.Duration) float64 {
	const batch = 1024
	ss := sim.NewShardSet(2, sim.Microsecond)
	src, dst := ss.Engine(0), ss.Engine(1)
	sink := sim.NewCounter(dst, "mail-sink")
	return timedRate(d, batch, func() {
		at := dst.Now() + 2*sim.Microsecond
		for i := 0; i < batch; i++ {
			ss.PostCall(src, dst, at+sim.Time(i%64)*sim.Microsecond/256, sink)
		}
		ss.Flush()
		dst.Run()
	})
}
