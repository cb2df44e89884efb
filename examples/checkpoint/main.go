// Checkpoint: in-memory checkpoint/restart across scheduler configurations.
//
// The script:
//
//  1. run 3 steps on 4 core groups with the asynchronous scheduler,
//
//  2. take a checkpoint and restore it into a fresh simulation on 2 core
//     groups with the synchronous scheduler,
//
//  3. run 3 more steps there,
//
//  4. verify the result equals an uninterrupted serial reference of all 6.
//
//     go run ./examples/checkpoint
package main

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

func main() {
	cells := grid.IV(16, 16, 32)
	patches := grid.IV(2, 2, 4) // 16 patches
	u := burgers.NewULabel()
	dt := burgers.StableDt(1.0/16, 1.0/16, 1.0/32)
	prob := core.Problem{
		Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib)},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
		Dt:      dt,
	}
	newSim := func(cgs int, mode scheduler.Mode) *core.Simulation {
		s, err := core.NewSimulation(core.Config{
			Cells:       cells,
			PatchCounts: patches,
			NumCGs:      cgs,
			Scheduler:   scheduler.Config{Mode: mode, Functional: true},
		}, prob)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	// 1. Three steps on 4 CGs, asynchronous scheduler.
	s1 := newSim(4, scheduler.ModeAsync)
	r1, err := s1.Run(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4 CGs acc.async        %.4f s/step\n", float64(r1.PerStep))

	// 2. Checkpoint and restore into 2 CGs, synchronous scheduler.
	ck, err := s1.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	s2 := newSim(2, scheduler.ModeSync)
	if err := s2.RestoreFromMemory(ck); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint             step %d, restored into 2 CGs acc.sync\n", ck.StepsDone)

	// 3. Three more steps on the restored simulation.
	r2, err := s2.Run(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2 CGs acc.sync         %.4f s/step\n", float64(r2.PerStep))

	// 4. Verify against an uninterrupted serial reference of all 6 steps.
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	ref := burgers.SerialSolve(lv, 6, dt, burgers.FastExpLib)
	got, err := s2.GatherField(u)
	if err != nil {
		log.Fatal(err)
	}
	d := field.MaxAbsDiff(got, ref, lv.Layout.Domain)
	fmt.Printf("verification           max diff vs uninterrupted reference = %.2e\n", d)
	if d > 1e-13 {
		log.Fatal("solution drifted across the restart")
	}
	fmt.Println("ok")
}
