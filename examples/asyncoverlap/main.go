// Asyncoverlap: makes the asynchronous scheduler's central mechanism
// visible. It runs the same small problem under the synchronous and the
// asynchronous MPE schedulers with tracing enabled, then reports how much
// MPE-side work (ghost packing/unpacking, warehouse touches, boundary
// fills) each one managed to hide under running CPE kernels, and prints
// the first part of each timeline.
//
//	go run ./examples/asyncoverlap
package main

import (
	"fmt"
	"log"
	"os"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/obs"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

func run(mode scheduler.Mode) (*core.Result, *trace.Recorder) {
	u := burgers.NewULabel()
	rec := trace.New()
	prob := core.Problem{
		Tasks: []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib)},
		Dt:    1e-5,
	}
	cfg := core.Config{
		Cells:       grid.IV(128, 128, 512),
		PatchCounts: grid.IV(2, 2, 2),
		NumCGs:      2,
		Scheduler:   scheduler.Config{Mode: mode, Trace: rec},
		Obs:         &obs.Options{},
	}
	sim, err := core.NewSimulation(cfg, prob)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(2)
	if err != nil {
		log.Fatal(err)
	}
	return res, rec
}

func main() {
	fmt.Println("same problem, two schedulers (2 CGs, 4 patches each, 2 steps):")
	fmt.Println()

	type outcome struct {
		name    string
		res     *core.Result
		rec     *trace.Recorder
		overlap float64
	}
	var outs []outcome
	for _, m := range []scheduler.Mode{scheduler.ModeSync, scheduler.ModeAsync} {
		res, rec := run(m)
		ov := res.Obs.Overlap[0]
		outs = append(outs, outcome{m.String(), res, rec, ov.KernelMPEOverlap + ov.KernelCommOverlap})
	}

	for _, o := range outs {
		st := o.res.RankStats[0]
		fmt.Printf("%-6s  %.4f s/step | MPE work %.4fs, comm %.4fs, spin-on-flag %.4fs, idle %.4fs\n",
			o.name, float64(o.res.PerStep), float64(st.MPEWorkTime),
			float64(st.CommTime), float64(st.KernelWaitTime), float64(st.IdleTime))
		fmt.Printf("        MPE work overlapped with running kernels: %.4f s\n", o.overlap)
	}
	sync, async := outs[0], outs[1]
	imp := (float64(sync.res.PerStep) - float64(async.res.PerStep)) / float64(async.res.PerStep) * 100
	fmt.Printf("\nasynchronous improvement (T_sync - T_async)/T_async = %.1f%%\n", imp)
	fmt.Printf("the synchronous scheduler hides %.4fs of MPE work; the asynchronous one %.4fs\n\n",
		sync.overlap, async.overlap)

	fmt.Println("start of the asynchronous rank-0 timeline (ms):")
	async.rec.WriteTimeline(os.Stdout, 0, 25)
}
