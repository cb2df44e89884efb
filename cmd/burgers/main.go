// Command burgers runs one configuration of the model fluid-flow problem
// (Section III of the paper) on the simulated Sunway TaihuLight and reports
// the per-timestep wall time, floating-point performance and hardware
// counters — the measurements behind the paper's evaluation.
//
// Timing-only runs (the default) handle every paper-scale problem; with
// -functional the solver computes real field data and verifies it against
// the exact manufactured solution.
//
// Examples:
//
//	burgers -problem 32x64x512 -cgs 16 -variant acc_simd.async
//	burgers -cells 32x32x32 -patches 2x2x2 -cgs 4 -functional -steps 5
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

func main() {
	problem := flag.String("problem", "", "paper problem size by patch name (e.g. 32x64x512); overrides -cells/-patches")
	cellsFlag := flag.String("cells", "64x64x64", "global grid size")
	patchesFlag := flag.String("patches", "2x2x2", "patch layout")
	cgs := flag.Int("cgs", 1, "number of core groups (MPI ranks)")
	variantName := flag.String("variant", "acc_simd.async", "Table IV variant: host.sync acc.sync acc_simd.sync acc.async acc_simd.async")
	steps := flag.Int("steps", experiments.Steps, "timesteps to run")
	functional := flag.Bool("functional", false, "compute real field data and verify against the exact solution")
	asyncDMA := flag.Bool("asyncdma", false, "enable double-buffered memory<->LDM DMA (future work, Section IX)")
	cpeGroups := flag.Int("cpegroups", 1, "CPE groups per core group (future work, Section IX)")
	ieeeExp := flag.Bool("ieee-exp", false, "use the IEEE-conforming (slow) exponential library")
	system := flag.String("system", "scalar", "model problem: scalar (the paper's Burgers) or vector (coupled 3-component Burgers)")
	balancerName := flag.String("balancer", "block", "patch assignment: block, roundrobin, sfc")
	chromeTrace := flag.String("chrometrace", "", "write a Chrome trace-event JSON timeline to this file")
	breakdown := flag.Bool("breakdown", false, "print a per-rank scheduler time breakdown")
	flag.Parse()

	v, err := experiments.VariantByName(*variantName)
	if err != nil {
		fatal(err)
	}

	cells, patches := grid.IVec{}, experiments.PatchCounts
	if *problem != "" {
		spec, err := experiments.ProblemByName(*problem)
		if err != nil {
			fatal(err)
		}
		cells = spec.GridSize
	} else {
		if cells, err = experiments.ParseIVec(*cellsFlag); err != nil {
			fatal(err)
		}
		if patches, err = experiments.ParseIVec(*patchesFlag); err != nil {
			fatal(err)
		}
	}

	expLib := burgers.FastExpLib
	if *ieeeExp {
		expLib = burgers.IEEEExpLib
	}
	dt := burgers.StableDt(1.0/float64(cells.X), 1.0/float64(cells.Y), 1.0/float64(cells.Z))
	var prob core.Problem
	var u *taskgraph.Label
	var verifyLabels []*taskgraph.Label
	switch *system {
	case "scalar":
		u = burgers.NewULabel()
		prob = core.Problem{
			Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, expLib)},
			Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
			Dt:      dt,
		}
		verifyLabels = []*taskgraph.Label{u}
	case "vector":
		vs := burgers.NewVectorSystem()
		prob = core.Problem{
			Tasks:   []*taskgraph.Task{vs.NewVectorAdvanceTask()},
			Initial: vs.Initial(),
			Dt:      dt / 2, // extra margin for the nonlinear coupling
		}
		dt = prob.Dt
		u = vs.U
		verifyLabels = vs.Labels()
	default:
		fatal(fmt.Errorf("unknown system %q", *system))
	}
	var balancer loadbalancer.Strategy
	switch *balancerName {
	case "block":
		balancer = loadbalancer.Block
	case "roundrobin":
		balancer = loadbalancer.RoundRobin
	case "sfc":
		balancer = loadbalancer.SFC
	default:
		fatal(fmt.Errorf("unknown balancer %q", *balancerName))
	}
	var rec *trace.Recorder
	if *chromeTrace != "" || *breakdown {
		rec = trace.New()
	}
	cfg := core.Config{
		Cells:       cells,
		PatchCounts: patches,
		NumCGs:      *cgs,
		Balancer:    balancer,
		Scheduler: scheduler.Config{
			Mode:       v.Mode,
			SIMD:       v.SIMD,
			Functional: *functional,
			AsyncDMA:   *asyncDMA,
			CPEGroups:  *cpeGroups,
			Trace:      rec,
		},
	}
	if *system == "vector" {
		cfg.Scheduler.TileSize = burgers.VectorTileSize
	}

	sim, err := core.NewSimulation(cfg, prob)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("burgers: grid %v, %d patches of %v, %d CGs, variant %s, dt %.3g, exp %s\n",
		cells, sim.Level.Layout.NumPatches(), sim.Level.Layout.PatchSize, *cgs, v.Name, dt, expLib)

	res, err := sim.Run(*steps)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nsteps                 %d\n", res.Steps)
	fmt.Printf("wall time             %.6f s (simulated)\n", float64(res.WallTime))
	fmt.Printf("wall time per step    %.6f s\n", float64(res.PerStep))
	fmt.Printf("floating point        %.2f Gflop/s aggregate (%.2f per CG)\n",
		res.Gflops, res.Gflops/float64(*cgs))
	fmt.Printf("efficiency            %.2f%% of the %d CGs' theoretical peak\n",
		res.Efficiency*100, *cgs)
	fmt.Printf("CPE flops             %d (%.0f%% in exponentials)\n", res.Counters.Flops,
		100*float64(res.Counters.ExpFlops)/math.Max(1, float64(res.Counters.Flops)))
	fmt.Printf("cells computed        %d\n", res.Counters.CellsComputed)
	fmt.Printf("offloads              %d, DMA %d ops / %.1f MB\n",
		res.Counters.Offloads, res.Counters.DMAOps, float64(res.Counters.DMABytes)/1e6)
	fmt.Printf("MPI traffic           %.2f MB\n", float64(res.BytesOnWire)/1e6)

	if *breakdown {
		fmt.Printf("\nper-rank scheduler breakdown (seconds over the whole run):\n")
		// Right-aligned columns; every cell after the first carries its
		// two-space gap, so the first column starts at the margin.
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 0, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "rank\t  mpe-work\t  mpe-kernel\t  kernel-wait\t  comm\t  idle\t  tasks\t\n")
		for r, st := range res.RankStats {
			fmt.Fprintf(tw, "%d\t  %.4f\t  %.4f\t  %.4f\t  %.4f\t  %.4f\t  %d\t\n", r,
				float64(st.MPEWorkTime), float64(st.MPEKernelTime), float64(st.KernelWaitTime),
				float64(st.CommTime), float64(st.IdleTime), st.TasksRun)
		}
		tw.Flush()
	}

	if *chromeTrace != "" {
		f, err := os.Create(*chromeTrace)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace           %s (open in chrome://tracing or Perfetto)\n", *chromeTrace)
	}

	if *functional && *system == "scalar" {
		f, err := sim.GatherField(u)
		if err != nil {
			fatal(err)
		}
		finalT := float64(*steps) * dt
		maxErr := 0.0
		sim.Level.Layout.Domain.ForEach(func(c grid.IVec) {
			x, y, z := sim.Level.CellCenter(c)
			if e := math.Abs(f.At(c) - burgers.Exact(x, y, z, finalT)); e > maxErr {
				maxErr = e
			}
		})
		fmt.Printf("verification          max |u - exact| = %.3e at t = %.4g\n", maxErr, finalT)
	}
	if *functional && *system == "vector" {
		// The coupled system has no closed-form solution; report bounds.
		for _, l := range verifyLabels {
			f, err := sim.GatherField(l)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("verification          max |%s| = %.4f (bounded)\n", l.Name(), field.MaxAbs(f, sim.Level.Layout.Domain))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burgers:", err)
	os.Exit(1)
}
