// Operations: the production-runtime features around the timestep loop —
// checkpoint/restart, measured-cost load rebalancing, and regridding — all
// exercised in one run with the solution verified after each disruption.
//
// The script:
//
//  1. run 2 steps on a deliberately skewed patch assignment,
//
//  2. auto-rebalance from measured per-patch kernel costs and run 2 more,
//
//  3. take a checkpoint, restore it into a fresh simulation,
//
//  4. regrid to a finer patch layout, run 2 final steps,
//
//  5. verify the result equals an uninterrupted serial reference.
//
//     go run ./examples/operations
package main

import (
	"fmt"
	"log"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

func main() {
	cells := grid.IV(16, 16, 32)
	patches := grid.IV(2, 2, 4) // 16 patches
	u := burgers.NewULabel()
	dt := burgers.StableDt(1.0/16, 1.0/16, 1.0/32)
	prob := core.Problem{
		Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib, false)},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
		Dt:      dt,
	}
	newSim := func() *core.Simulation {
		s, err := core.NewSimulation(core.Config{
			Cells:       cells,
			PatchCounts: patches,
			NumCGs:      4,
			Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: true},
		}, prob)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	s := newSim()

	// 1. Skew the assignment: rank 0 carries 13 of 16 patches.
	skew := make([]int, 16)
	skew[13], skew[14], skew[15] = 1, 2, 3
	if err := s.Rebalance(skew); err != nil {
		log.Fatal(err)
	}
	r1, err := s.Run(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skewed assignment      %.4f s/step\n", float64(r1.PerStep))

	// 2. Auto-rebalance on the measured per-patch kernel costs.
	assign, err := s.AutoRebalance()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto-rebalanced        patches per rank: %v\n", loadbalancer.Counts(assign, 4))
	r2, err := s.Run(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("balanced               %.4f s/step (%.2fx faster)\n",
		float64(r2.PerStep), float64(r1.PerStep)/float64(r2.PerStep))

	// 3. Checkpoint at step 4 and restore into a fresh simulation.
	ck, err := s.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	s2 := newSim()
	if err := s2.RestoreFromMemory(ck); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint             step %d, restored into a fresh simulation\n", ck.StepsDone)

	// 4. Regrid: re-partition the same cells into 32 smaller patches.
	if err := s2.Regrid(grid.IV(2, 4, 4)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regridded              %d patches of %v\n",
		s2.Level.Layout.NumPatches(), s2.Level.Layout.PatchSize)
	if _, err := s2.Run(2); err != nil {
		log.Fatal(err)
	}

	// 5. Verify against an uninterrupted serial reference of all 6 steps.
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	ref := burgers.SerialSolve(lv, 6, dt, burgers.FastExpLib)
	got, err := s2.GatherField(u)
	if err != nil {
		log.Fatal(err)
	}
	d := field.MaxAbsDiff(got, ref, lv.Layout.Domain)
	fmt.Printf("verification           max diff vs uninterrupted reference = %.2e\n", d)
	if d > 1e-13 {
		log.Fatal("solution drifted through the operations")
	}
	fmt.Println("ok")
}
