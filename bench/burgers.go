package main

import (
	"math"
	"os"
	"runtime"
	"time"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/dw"
	"sunuintah/internal/experiments"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/perf"
	"sunuintah/internal/runner"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
)

// linfPerStep is the frozen correctness bound on max|u − exact| per timestep
// taken: the first-order scheme's error grows linearly over a run's length
// (measured 3.6e-5 per step on the full grid, 1.5e-3 on the smoke-test grid,
// whose cells and timestep are four times larger).
func linfPerStep(o runOpts) float64 {
	if o.tiny {
		return 3e-3
	}
	return 6e-5
}

// linfSteps is the step count at which the traced run reports
// burgers.linf_err, fixed so the number repeats exactly.
const linfSteps = 8

func burgersSpec(o runOpts) runner.Spec {
	// 256x256x128 cells: 67 MB per field copy, beyond L2 and inside the
	// shared L3; bytes moved are reported as computed, not measured.
	cells := "256x256x128"
	if o.tiny {
		cells = "64x64x32"
	}
	return runner.Spec{Cells: cells, Layout: "8x8x2", CGs: 8, Variant: "acc_simd.async", Steps: 1, Functional: true}
}

// linfError gathers u and returns max|u − exact| at the simulation's time
// after stepsDone steps.
func linfError(s *core.Simulation, stepsDone int) (float64, error) {
	var u *taskgraph.Label
	for l := range s.Prob.Initial {
		u = l
	}
	f, err := s.GatherField(u)
	if err != nil {
		return 0, err
	}
	t := float64(stepsDone) * s.Prob.Dt
	maxErr := 0.0
	s.Level.Layout.Domain.ForEach(func(c grid.IVec) {
		x, y, z := s.Level.CellCenter(c)
		if e := math.Abs(f.At(c) - burgers.Exact(x, y, z, t)); e > maxErr {
			maxErr = e
		}
	})
	return maxErr, nil
}

// checkLinf records the solution check as one attempted operation.
func checkLinf(o runOpts, m *measured, s *core.Simulation, stepsDone int) (float64, error) {
	e, err := linfError(s, stepsDone)
	if err != nil {
		return 0, err
	}
	m.attempted++
	if bound := linfPerStep(o) * float64(stepsDone); !(e <= bound) {
		m.fail("functional-burgers: L∞ error %.3e after %d steps exceeds %.1e", e, stepsDone, bound)
	}
	return e, nil
}

func runBurgers(o runOpts, m *measured) error {
	cfg, prob, err := experiments.SpecConfig(burgersSpec(o))
	if err != nil {
		return err
	}
	if o.trace {
		return traceBurgers(o, m, cfg, prob)
	}
	// Three cold builds; the last one is the simulation that is stepped.
	var s *core.Simulation
	var builds []float64
	for i := 0; i < 3; i++ {
		s = nil
		runtime.GC()
		t0 := time.Now()
		if s, err = core.NewSimulation(cfg, prob); err != nil {
			return err
		}
		builds = append(builds, time.Since(t0).Seconds()*m.calib.readN(5))
	}
	m.set("setup_s", median(builds))

	if _, _, err := window(s, 1); err != nil { // warm-up: pools fill, tiles allocate
		return err
	}
	steps := 1
	runtime.GC()
	cpu0, reads0 := cpuSeconds()-m.calib.spent.Seconds(), len(m.calib.speeds)
	var stepMs []float64 // each step at the reference host speed (calib.go)
	deadline := time.Now().Add(o.measure())
	for time.Now().Before(deadline) {
		_, el, err := window(s, 1)
		m.attempted++
		if err != nil {
			return err
		}
		stepMs = append(stepMs, ms(el)*m.calib.read())
		steps++
	}
	cpu := (cpuSeconds() - m.calib.spent.Seconds() - cpu0) * median(m.calib.speeds[reads0:])
	m.set("work_per_s", stepsPerS(stepMs))
	m.set("op_ms_p50", median(stepMs))
	m.set("op_ms_tail", percentile(stepMs, 0.90))
	m.set("cpu_ms_per_op", 1000*cpu/float64(len(stepMs)))
	e, err := checkLinf(o, m, s, steps)
	if err != nil {
		return err
	}
	m.note("functional-burgers: %d one-step windows on %s cells; L∞ error %.3e after %d steps (bound %.1e per step); op = one timestep, tail = p90",
		len(stepMs), burgersSpec(o).Cells, e, steps, linfPerStep(o))
	return nil
}

func traceBurgers(o runOpts, m *measured, cfg core.Config, prob core.Problem) error {
	runtime.GC()
	sp, s, err := replaySetup(cfg, prob)
	if err != nil {
		return err
	}
	setSetupSpans(m, []setupSpans{sp})

	// Warm-up step, then the counted window (steps 1..linfSteps-1) and the
	// exact error at a fixed step count.
	t0 := time.Now()
	warmup, _, err := window(s, 1)
	if err != nil {
		return err
	}
	counts, err := countedWindow(s, linfSteps-1, warmup)
	if err != nil {
		return err
	}
	m.attempted += linfSteps
	setStepCounts(m, counts)
	m.set("core.setup_frac", sp.newsimMs/(sp.newsimMs+ms(time.Since(t0))))
	e, err := checkLinf(o, m, s, linfSteps)
	if err != nil {
		return err
	}
	m.set("burgers.linf_err", e)

	const blocks = 3
	blockLen := time.Duration(float64(o.measure()) * 0.45 / (2 * blocks))
	stepFor := func(d time.Duration) ([]float64, error) {
		var out []float64
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			_, el, err := window(s, 1)
			m.attempted++
			if err != nil {
				return nil, err
			}
			out = append(out, ms(el))
		}
		return out, nil
	}
	var prof cpuProfile
	var plain, traced []float64
	runtime.GC()
	m0 := mallocs()
	err = prof.alternate(blocks, func(profiled bool) error {
		xs, err := stepFor(blockLen)
		if profiled {
			traced = append(traced, xs...)
		} else {
			plain = append(plain, xs...)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("host.allocs_per_op", float64(mallocs()-m0)/float64(len(plain)+len(traced)))
	setHostFractions(m, prof.stacks)
	m.set("host.trace_overhead_frac", 1-stepsPerS(traced)/stepsPerS(plain))
	m.set("engine.serial_steps_per_s", stepsPerS(plain))
	m.set("sim.us_per_event", 1000*median(plain)/counts.events)

	// Release the simulation before the isolated probes so they run in a
	// small heap, then time each layer's public API alone.
	m.set("host.peak_rss_mb", peakRSSMB(os.Getpid()))
	s = nil
	runtime.GC()
	probeLen := time.Duration(float64(o.measure()) * 0.04)
	probeKernel(m, probeLen)
	m.note("functional-burgers traced: %d plain + %d profiled steps, %d profile samples; computed field traffic %.0f MB/step (two 8-byte accesses per cell)",
		len(plain), len(traced), len(prof.stacks), counts.cells*16/1e6)
	return nil
}

// probeKernel times the Burgers kernel, one ghost-face pack and unpack, and
// the warehouse allocate/swap cycle in isolation — the calls cmd/benchgate
// makes for kernel.fast, halo.pack/unpack and dw.churn.
func probeKernel(m *measured, d time.Duration) {
	lv, err := grid.NewUnitCubeLevel(grid.IV(32, 32, 32), grid.IV(1, 1, 1))
	if err != nil {
		panic(err) // static sizes
	}
	dom := lv.Layout.Domain
	in := field.NewCellWithGhost(dom, 1)
	in.FillFunc(in.Alloc(), func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return burgers.Initial(x, y, z)
	})
	out := field.NewCell(dom)
	dt := burgers.StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
	m.set("burgers.cells_per_s", timedRate(d, int(dom.NumCells()), func() {
		burgers.Advance(in, out, dom, lv, 0, dt, burgers.FastExpLib)
	}))

	face := grid.NewBox(grid.IV(0, 0, 31), grid.IV(32, 32, 32))
	faceBytes := int(face.NumCells() * 8)
	buf := field.GetBuf(int(face.NumCells()))
	m.set("field.pack_gb_per_s", timedRate(d, faceBytes, func() { buf = in.Pack(face, buf[:0]) })/1e9)
	dst := field.NewCellWithGhost(dom, 1)
	m.set("field.unpack_gb_per_s", timedRate(d, faceBytes, func() { dst.Unpack(face, buf) })/1e9)
	field.PutSlice(buf)

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
	m.set("dw.swaps_per_s", timedRate(d, 1, func() {
		if err := pair.New.Allocate(u, patch, 1); err != nil {
			panic(err)
		}
		pair.Swap()
	}))
}
