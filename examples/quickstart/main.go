// Quickstart: the smallest complete use of the runtime.
//
// It declares the Burgers timestep task through the public task-graph API,
// runs six timesteps of a 32^3 problem on four simulated core groups with
// the asynchronous Sunway scheduler, and verifies the computed field
// against the exact manufactured solution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

func main() {
	// The solution variable, with its exact-solution Dirichlet boundary
	// condition attached.
	u := burgers.NewULabel()

	// A problem is a list of coarse tasks plus initial conditions. The
	// Burgers advance task requires u from the old data warehouse with one
	// ghost layer and computes u into the new warehouse on the CPEs.
	prob := core.Problem{
		Tasks: []*taskgraph.Task{
			burgers.NewAdvanceTask(u, burgers.FastExpLib),
		},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{
			u: burgers.Initial,
		},
		Dt: burgers.StableDt(1.0/32, 1.0/32, 1.0/32),
	}

	// Machine and scheduler configuration: a 32^3 grid split into eight
	// 16^3 patches over four core groups, asynchronous scheduling,
	// functional (real numerics) mode.
	cfg := core.Config{
		Cells:       grid.IV(32, 32, 32),
		PatchCounts: grid.IV(2, 2, 2),
		NumCGs:      4,
		Scheduler: scheduler.Config{
			Mode:       scheduler.ModeAsync,
			Functional: true,
		},
	}

	sim, err := core.NewSimulation(cfg, prob)
	if err != nil {
		log.Fatal(err)
	}
	const steps = 6
	res, err := sim.Run(steps)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %d steps in %.4f simulated seconds (%.4f s/step)\n",
		res.Steps, float64(res.WallTime), float64(res.PerStep))
	fmt.Printf("scheduler moved %.1f MB of ghost data over MPI and offloaded %d kernels\n",
		float64(res.BytesOnWire)/1e6, res.Counters.Offloads)

	// Verify against the exact solution u = phi(x,t) phi(y,t) phi(z,t).
	f, err := sim.GatherField(u)
	if err != nil {
		log.Fatal(err)
	}
	finalT := steps * prob.Dt
	maxErr := 0.0
	sim.Level.Layout.Domain.ForEach(func(c grid.IVec) {
		x, y, z := sim.Level.CellCenter(c)
		if e := math.Abs(f.At(c) - burgers.Exact(x, y, z, finalT)); e > maxErr {
			maxErr = e
		}
	})
	fmt.Printf("max error vs exact solution at t=%.4f: %.3e\n", finalT, maxErr)
	if maxErr > 0.05 {
		log.Fatal("verification failed")
	}
	fmt.Println("ok")
}
