package core_test

import (
	"fmt"
	"log"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// Example runs the Burgers model problem on four simulated core groups
// with the asynchronous Sunway scheduler and reports what executed.
func Example() {
	u := burgers.NewULabel()
	prob := core.Problem{
		Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib, false)},
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

// ExampleSimulation_Rebalance moves every patch to a new owner mid-run;
// the solution is unaffected.
func ExampleSimulation_Rebalance() {
	u := burgers.NewULabel()
	prob := core.Problem{
		Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib, false)},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
		Dt:      burgers.StableDt(1.0/16, 1.0/16, 1.0/16),
	}
	sim, err := core.NewSimulation(core.Config{
		Cells:       grid.IV(16, 16, 16),
		PatchCounts: grid.IV(2, 2, 2),
		NumCGs:      2,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: true},
	}, prob)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(1); err != nil {
		log.Fatal(err)
	}
	// Swap the two ranks' patches.
	if err := sim.Rebalance([]int{1, 1, 1, 1, 0, 0, 0, 0}); err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rank 1 now owns patch", sim.Ranks[1].Graph().LocalPatches[0].ID)
	// Output:
	// rank 1 now owns patch 0
}
