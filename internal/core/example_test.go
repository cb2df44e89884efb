package core_test

import (
	"fmt"
	"log"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// Example runs the Burgers model problem on four simulated core groups
// with the asynchronous Sunway scheduler and reports what executed.
func Example() {
	u := burgers.NewULabel()
	prob := core.Problem{
		Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib)},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
		Dt:      burgers.StableDt(1.0/16, 1.0/16, 1.0/16),
	}
	cfg := core.Config{
		Cells:       grid.IV(16, 16, 16),
		PatchCounts: grid.IV(2, 2, 2),
		NumCGs:      4,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: true},
	}
	sim, err := core.NewSimulation(cfg, prob)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steps: %d\n", res.Steps)
	fmt.Printf("kernel offloads: %d\n", res.Counters.Offloads)
	fmt.Printf("cells computed: %d\n", res.Counters.CellsComputed)
	// Output:
	// steps: 3
	// kernel offloads: 24
	// cells computed: 12288
}

// ExampleSimulation_Checkpoint moves a run from four core groups to two
// between steps: the checkpoint carries the fields, not their owners.
func ExampleSimulation_Checkpoint() {
	cells, patches := grid.IV(16, 16, 16), grid.IV(2, 2, 2)
	u := burgers.NewULabel()
	prob := core.Problem{
		Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib)},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
		Dt:      burgers.StableDt(1.0/16, 1.0/16, 1.0/16),
	}
	newSim := func(cgs int) *core.Simulation {
		sim, err := core.NewSimulation(core.Config{
			Cells:       cells,
			PatchCounts: patches,
			NumCGs:      cgs,
			Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: true},
		}, prob)
		if err != nil {
			log.Fatal(err)
		}
		return sim
	}
	first := newSim(4)
	if _, err := first.Run(2); err != nil {
		log.Fatal(err)
	}
	ckpt, err := first.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	second := newSim(2)
	if err := second.RestoreFromMemory(ckpt); err != nil {
		log.Fatal(err)
	}
	if _, err := second.Run(2); err != nil {
		log.Fatal(err)
	}
	got, err := second.GatherField(u)
	if err != nil {
		log.Fatal(err)
	}
	ref := burgers.SerialSolve(second.Level, 4, prob.Dt, burgers.FastExpLib)
	fmt.Println("checkpoint after step", ckpt.StepsDone, "holds", ckpt.Labels)
	fmt.Println("restored run matches a serial solve of 4 steps:", field.MaxAbsDiff(got, ref, second.Level.Layout.Domain) <= 1e-13)
	// Output:
	// checkpoint after step 2 holds [u]
	// restored run matches a serial solve of 4 steps: true
}
