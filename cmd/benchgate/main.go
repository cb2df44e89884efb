// Command benchgate records and enforces the repository's performance
// baseline. It times the wall-clock hot paths of the simulated runtime —
// the monomorphic Burgers kernel, the halo pack/unpack path, the
// warehouse allocate/free churn and the discrete-event loop — plus their
// steady-state allocation counts, and writes them to a JSON baseline
// (`make bench`). In check mode (`make check`) it reruns the workloads
// and fails when a metric regresses by more than the tolerance.
//
// Machine-speed robustness: the baseline includes a calibration metric (a
// fixed pure-CPU loop). A throughput metric only fails the gate when both
// its raw value and its calibration-normalised ratio regress beyond the
// tolerance, so a uniformly slower machine does not trip the gate while a
// genuine hot-path regression does. Allocation metrics are compared
// absolutely (a pool regression shows up as allocs/op > baseline).
//
// Usage:
//
//	benchgate -record [-o BENCH_baseline.json]
//	benchgate -check BENCH_baseline.json [-tol 0.15] [-v]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/dw"
	"sunuintah/internal/experiments"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/obs"
	"sunuintah/internal/perf"
	"sunuintah/internal/runner"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
	"sunuintah/internal/workload"
)

// calibName is the machine-speed reference metric every rate is
// normalised by in check mode.
const calibName = "calib.iters_per_s"

// schemaVersion is the baseline file format this benchgate reads and
// writes. Schema 2 added the recorded GOMAXPROCS; schema 3 added the
// observability metrics (obs.overhead_frac, obs.nilprobe.allocs_per_op);
// schema 4 dropped the Time-Warp metrics with the engine. A stale-schema
// baseline fails the gate with a re-record instruction instead of silently
// skipping metrics.
const schemaVersion = 4

// Baseline is the persisted gate file.
type Baseline struct {
	Schema int    `json:"schema"`
	Go     string `json:"go"`
	// GoMaxProcs records the parallelism the baseline was measured under.
	// Rate metrics are calibration-normalised so this is informational, but
	// the speedup floors are parallelism-dependent — a baseline recorded on
	// a single-core runner explains a 0.9x shards4 ratio at a glance.
	GoMaxProcs int                `json:"gomaxprocs"`
	Generated  string             `json:"generated"`
	Metrics    map[string]float64 `json:"metrics"`
}

// peakSpin is the fastest spin-probe rate observed so far in this process.
// It approximates the host's unthrottled speed and lets measureRate detect
// when an entire metric's sampling ran inside a scheduler-throttle burst.
var peakSpin float64

// spinProbe runs a short fixed FastExp loop (~2ms unthrottled) and returns
// its rate. Measured immediately adjacent to each sample window, it tags
// windows that ran while the host was being throttled.
func spinProbe() float64 {
	const n = 100000
	x := -3.7
	s := 0.0
	start := time.Now()
	for i := 0; i < n; i++ {
		s += burgers.FastExp(x)
		x += 1e-6
	}
	el := time.Since(start)
	if s == 0 {
		panic("spin probe underflow")
	}
	rate := float64(n) / el.Seconds()
	if rate > peakSpin {
		peakSpin = rate
	}
	return rate
}

// measureRate returns the throughput of fn (units/second), where fn performs
// n units of work per call. Shared hosts hand out both throttled and lucky
// scheduler windows, and a best-of estimator turns the recorded baseline
// into an outlier every honest re-run then "regresses" against — so instead
// each ≥20ms sample window is bracketed by spin probes, windows whose
// adjacent probes fell well below the metric's fastest are discarded as
// throttled, and the median of the survivors is reported. If the whole
// metric sampled inside a throttle burst (its best probe is far below the
// process-wide peak), sampling is retried a bounded number of times.
func measureRate(n int, reps int, fn func()) float64 {
	fn() // warm caches and pools
	for attempt := 0; ; attempt++ {
		rate, best := sampleRate(n, reps, fn)
		if best >= 0.7*peakSpin || attempt >= 2 {
			return rate
		}
	}
}

// oneWindow returns fn's throughput over a single timing window of at
// least 20ms, growing the iteration count until the window is long enough
// to time reliably.
func oneWindow(n int, fn func()) float64 {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		el := time.Since(start)
		if el >= 20*time.Millisecond {
			return float64(n) * float64(iters) / el.Seconds()
		}
		iters *= 4
	}
}

func sampleRate(n int, reps int, fn func()) (rate, bestSpin float64) {
	type sample struct{ rate, spin float64 }
	samples := make([]sample, 0, reps)
	for r := 0; r < reps; r++ {
		before := spinProbe()
		measured := oneWindow(n, fn)
		after := spinProbe()
		spin := before
		if after < spin {
			spin = after
		}
		samples = append(samples, sample{measured, spin})
		if spin > bestSpin {
			bestSpin = spin
		}
	}
	rates := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.spin >= 0.8*bestSpin {
			rates = append(rates, s.rate)
		}
	}
	sort.Float64s(rates)
	if len(rates)%2 == 1 {
		return rates[len(rates)/2], bestSpin
	}
	return (rates[len(rates)/2-1] + rates[len(rates)/2]) / 2, bestSpin
}

func collect() map[string]float64 {
	m := map[string]float64{}

	// Calibration: a fixed FastExp loop — pure CPU, no allocation, no
	// scheduler involvement.
	calib := func() {
		x := -3.7
		s := 0.0
		for i := 0; i < 10000; i++ {
			s += burgers.FastExp(x)
			x += 1e-6
		}
		if s == 0 {
			panic("calibration underflow")
		}
	}
	m[calibName] = measureRate(10000, 5, calib)

	// Observability overhead: the sampler's hooks must cost
	// under 5% of e2e steps/s. The cost is isolated at the core layer:
	// both sides of a pair run the same resolved config with a trace
	// recorder attached (an observed run always records one), and the
	// instrumented side additionally wires every probe
	// with report assembly disabled (obs.Options.HooksOnly) — so the
	// delta is exactly the always-on hook tax, not the one-shot report
	// assembly that only reporting runs pay. The case runs longer than
	// the e2e speedup cases because the sampler's cost is sublinear in
	// run length (decimation bounds every series, so a 2-step window
	// would mostly time the fixed arena setup, not the steady-state tax
	// production jobs pay). Interleaved pairs like the speedup metrics —
	// a throttle burst hits both sides of one pair instead of biasing a
	// whole side — and each pair's overhead clamps at 0 (a recorder
	// faster than its control is measurement noise, not negative cost).
	{
		const obsSteps = 16 // 8x the e2e speedup cases' window
		spec := runner.Spec{Cells: "64x64x128", Layout: "4x4x2", CGs: 32,
			Variant: "acc_simd.async", Steps: obsSteps, Shards: 4}
		baseCfg, prob, err := experiments.SpecConfig(spec)
		if err != nil {
			panic(err)
		}
		runCase := func(hooks bool) func() {
			return func() {
				cfg := baseCfg
				if hooks {
					cfg.Obs = &obs.Options{HooksOnly: true}
				} else {
					cfg.Scheduler.Trace = trace.New()
				}
				s, err := core.NewSimulation(cfg, prob)
				if err != nil {
					panic(err)
				}
				if _, err := s.Run(obsSteps); err != nil {
					panic(err)
				}
			}
		}
		plainFn, hookFn := runCase(false), runCase(true)
		plainFn()
		hookFn()
		// Single-core hosts with a concurrent GC make individual windows
		// of this case swing by ±10%, so per-pair ratios cannot be
		// compared against a 5% budget. Each round interleaves several
		// windows per side, each behind a forced GC (so neither side
		// inherits the other's garbage), and ratios the per-side medians;
		// the metric is the median of three such rounds. The block runs
		// right after calibration, before the e2e suites grow the heap,
		// so every forced-GC window starts from the same small live set.
		window := func(fn func()) float64 {
			runtime.GC()
			return oneWindow(obsSteps, fn)
		}
		const rounds, wins = 3, 5
		ovs := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			ps := make([]float64, 0, wins)
			ws := make([]float64, 0, wins)
			for i := 0; i < wins; i++ {
				ps = append(ps, window(plainFn))
				ws = append(ws, window(hookFn))
			}
			ov := 1 - median(ws)/median(ps)
			if ov < 0 {
				ov = 0
			}
			ovs = append(ovs, ov)
		}
		m["obs.overhead_frac"] = median(ovs)
	}

	// Kernel throughput per exponential library (cells/s) on the
	// benchmark's 32^3 single-patch grid.
	lv, err := grid.NewUnitCubeLevel(grid.IV(32, 32, 32), grid.IV(1, 1, 1))
	if err != nil {
		panic(err)
	}
	dom := lv.Layout.Domain
	in := field.NewCellWithGhost(dom, 1)
	in.FillFunc(in.Alloc(), func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return burgers.Initial(x, y, z)
	})
	out := field.NewCell(dom)
	dt := burgers.StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
	cells := int(dom.NumCells())
	m["kernel.fast.cells_per_s"] = measureRate(cells, 5, func() {
		burgers.Advance(in, out, dom, lv, 0, dt, burgers.FastExpLib)
	})
	m["kernel.ieee.cells_per_s"] = measureRate(cells, 5, func() {
		burgers.Advance(in, out, dom, lv, 0, dt, burgers.IEEEExpLib)
	})
	m["kernel.allocs_per_op"] = testing.AllocsPerRun(10, func() {
		burgers.Advance(in, out, dom, lv, 0, dt, burgers.FastExpLib)
	})

	// Halo pack/unpack (bytes/s) of one ghost face, pooled payload.
	face := grid.NewBox(grid.IV(0, 0, 31), grid.IV(32, 32, 32))
	faceBytes := int(face.NumCells() * 8)
	buf := field.GetBuf(int(face.NumCells()))
	m["halo.pack.bytes_per_s"] = measureRate(faceBytes, 5, func() {
		buf = in.Pack(face, buf[:0])
	})
	dst := field.NewCellWithGhost(dom, 1)
	m["halo.unpack.bytes_per_s"] = measureRate(faceBytes, 5, func() {
		dst.Unpack(face, buf)
	})
	m["halo.allocs_per_op"] = testing.AllocsPerRun(10, func() {
		p := field.GetBuf(int(face.NumCells()))
		p = in.Pack(face, p)
		dst.Unpack(face, p)
		field.PutSlice(p)
	})
	field.PutSlice(buf)

	// Warehouse allocate/free churn (swaps/s): the per-step variable
	// lifecycle on a 16^3 patch, pooled storage.
	plv, err := grid.NewUnitCubeLevel(grid.IV(16, 16, 16), grid.IV(1, 1, 1))
	if err != nil {
		panic(err)
	}
	patch := plv.Layout.Patch(0)
	cg := sw26010.NewMachine(sim.NewEngine(), perf.DefaultParams(), 1).CG(0)
	pair := dw.NewPair(dw.Functional, cg)
	u := taskgraph.NewLabel("u", nil)
	if err := pair.Old.Allocate(u, patch, 1); err != nil {
		panic(err)
	}
	m["dw.churn.swaps_per_s"] = measureRate(1, 5, func() {
		if err := pair.New.Allocate(u, patch, 1); err != nil {
			panic(err)
		}
		pair.Swap()
	})

	// End-to-end timestep throughput (steps/s) of a 32-rank case, on the
	// serial engine and on the sharded conservative engine. The pair
	// gates the parallel engine: a scheduling or barrier regression shows
	// up in e2e.shards4 even when the micro-metrics above hold steady.
	const e2eSteps = 2
	e2e := func(shards int) func() {
		spec := runner.Spec{Cells: "64x64x128", Layout: "4x4x2", CGs: 32,
			Variant: "acc_simd.async", Steps: e2eSteps, Shards: shards}
		return func() {
			res, err := experiments.Exec(context.Background(), spec)
			if err != nil {
				panic(err)
			}
			if !res.Feasible {
				panic("benchgate: e2e case infeasible")
			}
		}
	}
	m["e2e.serial.steps_per_s"] = measureRate(e2eSteps, 5, e2e(0))
	m["e2e.shards4.steps_per_s"] = measureRate(e2eSteps, 5, e2e(4))
	// The parallel engine's headline ratio, checked against an absolute
	// floor that scales with the machine's parallelism (see speedupFloor).
	// It is measured from interleaved windows — serial and sharded timed
	// back-to-back within each rep and the ratio taken per pair — so a host
	// throttle burst degrades both sides of one sample instead of biasing
	// an entire side, which the two independent rates above are exposed to.
	{
		serialFn, shardFn := e2e(0), e2e(4)
		const reps = 7
		ratios := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			s := oneWindow(e2eSteps, serialFn)
			p := oneWindow(e2eSteps, shardFn)
			ratios = append(ratios, p/s)
		}
		sort.Float64s(ratios)
		m["e2e.shards4.speedup_x"] = ratios[reps/2]
	}

	// Mixed-physics end-to-end throughput (steps/s): all three model
	// problems partitioned across patches with per-patch task predicates
	// and physics-interface BC fills — the workload scenarios' hot path.
	mixedSpec := runner.Spec{Cells: "16x16x32", Layout: "2x2x4", CGs: 4,
		Variant: "acc.async", Steps: e2eSteps,
		Physics: "mix:burgers=1,advection=1,heat3d=1,seed=3"}
	m["e2e.mixed.steps_per_s"] = measureRate(e2eSteps, 5, func() {
		res, err := experiments.Exec(context.Background(), mixedSpec)
		if err != nil {
			panic(err)
		}
		if !res.Feasible {
			panic("benchgate: mixed-physics case infeasible")
		}
	})

	// Scenario expansion throughput (jobs/s): the workload generator's
	// thinned-sampling and storm-wave path, no simulation involved.
	sc := workload.DefaultScenario()
	expanded, err := sc.Expand()
	if err != nil {
		panic(err)
	}
	m["workload.expand.jobs_per_s"] = measureRate(len(expanded), 5, func() {
		if _, err := sc.Expand(); err != nil {
			panic(err)
		}
	})

	// Event-loop throughput (events/s): a self-rescheduling chain on the
	// no-handle After path, so the arena's recycling is what is measured
	// rather than per-event handle allocation.
	m["sim.events_per_s"] = measureRate(100000, 5, func() {
		e := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 100000 {
				e.After(sim.Microsecond, tick)
			}
		}
		e.After(sim.Microsecond, tick)
		e.Run()
	})

	// Batched cross-shard mail (msgs/s and steady-state allocs): one
	// source shard floods a destination through the post → Flush merge →
	// bulk-inject path, the sharded engine's hot seam.
	{
		const mailBatch = 1024
		runtime.GC() // flush earlier metrics' garbage; the round itself is alloc-free
		ss := sim.NewShardSet(2, sim.Microsecond)
		src, dst := ss.Engine(0), ss.Engine(1)
		sink := sim.NewCounter(dst, "mail-sink")
		round := func() {
			at := dst.Now() + 2*sim.Microsecond
			for i := 0; i < mailBatch; i++ {
				ss.PostCall(src, dst, at+sim.Time(i%64)*sim.Microsecond/256, sink)
			}
			ss.Flush()
			dst.Run()
		}
		round() // warm the arenas and merge buffers
		// More reps than the other metrics: each round is short (~300µs),
		// so the best-of search needs to span several scheduler throttle
		// periods on shared hosts to find an undisturbed window.
		m["sim.mail.msgs_per_s"] = measureRate(mailBatch, 12, round)
		m["sim.mail.allocs_per_op"] = testing.AllocsPerRun(10, round)
	}

	// The disabled-observability fast path must stay allocation-free: a nil
	// RankProbes hook and a publish to a subscriber-less progress topic are
	// what every non-instrumented run pays per scheduler event/step.
	{
		var probes *obs.RankProbes
		bus := obs.NewProgressBus()
		ev := obs.ProgressEvent{Rank: 1, Step: 1, Done: 1, Total: 10}
		m["obs.nilprobe.allocs_per_op"] = testing.AllocsPerRun(100, func() {
			probes.QueueDepth(1, 3)
			probes.MsgSent(1, 4096, 2)
			bus.Publish("benchgate", ev)
		})
	}

	return m
}

// speedupFloor is the minimum acceptable e2e.shards4.speedup_x for this
// machine. Four shards can only express their parallelism when the host
// gives the process at least four schedulable CPUs — there the tentpole
// 1.8x target is enforced. With fewer CPUs than shards the engine runs
// every window inline on one thread (sim's windowRunner), so the gate
// degrades to "sharding must not lose" (with headroom for measurement
// noise on shared runners).
func speedupFloor() float64 {
	if runtime.GOMAXPROCS(0) >= 4 {
		return 1.8
	}
	return 0.85
}

// fracSlack is the absolute headroom obs.overhead_frac gets above a
// recorded baseline that already sits over the 5% contract.
const fracSlack = 0.01

func record(path string) error {
	b := Baseline{
		Schema:     schemaVersion,
		Go:         runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Metrics:    collect(),
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// check compares fresh measurements against the baseline, returning the
// list of failures.
func check(path string, tol float64, verbose bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w (run `make bench` to record one)", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parse baseline: %w", err)
	}
	if base.Schema != schemaVersion {
		return nil, fmt.Errorf("baseline %s has schema %d, this benchgate requires schema %d (run `make bench` to re-record)",
			path, base.Schema, schemaVersion)
	}
	cur := collect()
	baseCalib, curCalib := base.Metrics[calibName], cur[calibName]

	var names []string
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		b, c := base.Metrics[name], cur[name]
		if name == calibName {
			if verbose {
				fmt.Printf("%-28s baseline %.3g  current %.3g  (calibration)\n", name, b, c)
			}
			continue
		}
		if _, ok := cur[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: metric no longer measured", name))
			continue
		}
		if strings.HasSuffix(name, "speedup_x") {
			// Absolute floor, parallelism-aware: the ratio is already
			// machine-normalised (same host measures both sides).
			floor := speedupFloor()
			if c < floor {
				failures = append(failures, fmt.Sprintf("%s: %.2fx, floor %.2fx (GOMAXPROCS=%d)",
					name, c, floor, runtime.GOMAXPROCS(0)))
			}
			if verbose {
				fmt.Printf("%-28s baseline %.2fx  current %.2fx  (floor %.2fx)\n", name, b, c, floor)
			}
			continue
		}
		if name == "obs.overhead_frac" {
			// The recorder's cost is bounded by contract (<5%), not by its
			// own history: a baseline recorded on a quiet host must not turn
			// ordinary jitter on a noisy one into a regression.
			limit := 0.05
			if b+fracSlack > limit {
				limit = b + fracSlack
			}
			if c > limit {
				failures = append(failures, fmt.Sprintf("%s: %.3f, limit %.3f (observability must stay cheap)",
					name, c, limit))
			}
			if verbose {
				fmt.Printf("%-28s baseline %.3f  current %.3f  (limit %.3f)\n", name, b, c, limit)
			}
			continue
		}
		if strings.HasSuffix(name, "allocs_per_op") {
			// Absolute: allocation regressions are machine-independent.
			if c > b+0.5 {
				failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op, baseline %.1f", name, c, b))
			}
			if verbose {
				fmt.Printf("%-28s baseline %.1f  current %.1f  allocs/op\n", name, b, c)
			}
			continue
		}
		rawRegressed := c < b*(1-tol)
		normRegressed := true
		if baseCalib > 0 && curCalib > 0 {
			normRegressed = c/curCalib < (b/baseCalib)*(1-tol)
		}
		if verbose {
			ratio := 0.0
			if b > 0 {
				ratio = c / b
			}
			fmt.Printf("%-28s baseline %.3g  current %.3g  (%.0f%% of baseline)\n", name, b, c, ratio*100)
		}
		if rawRegressed && normRegressed {
			failures = append(failures, fmt.Sprintf("%s: %.3g vs baseline %.3g (>%.0f%% regression, calibration-adjusted)",
				name, c, b, tol*100))
		}
	}

	// A metric measured now but absent from the baseline is a hard failure,
	// not a silent skip: a newly added gate metric must land together with
	// its recorded baseline, or it would never actually gate anything.
	var extra []string
	for name := range cur {
		if _, ok := base.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		failures = append(failures, fmt.Sprintf("%s: measured but missing from baseline (run `make bench` to re-record)", name))
	}
	return failures, nil
}

func main() {
	recordFlag := flag.Bool("record", false, "measure and write the baseline")
	out := flag.String("o", "BENCH_baseline.json", "baseline path for -record")
	checkFlag := flag.String("check", "", "baseline file to compare against")
	tol := flag.Float64("tol", 0.15, "allowed fractional regression for rate metrics")
	verbose := flag.Bool("v", false, "print every metric comparison")
	flag.Parse()

	switch {
	case *recordFlag:
		if err := record(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchgate: wrote %s\n", *out)
	case *checkFlag != "":
		failures, err := check(*checkFlag, *tol, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "benchgate: REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %s ok (tol %.0f%%)\n", *checkFlag, *tol*100)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchgate -record [-o file] | -check file [-tol f] [-v]")
		os.Exit(2)
	}
}

// median returns the middle value of xs (upper middle for even counts)
// without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
