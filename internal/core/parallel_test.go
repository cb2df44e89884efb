package core

import (
	"math"
	"runtime"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
)

// TestParallelTileExecutionDeterministic proves the host tile queue that
// runs tile numerics in parallel changes no bits: the scheduler sizes it
// to GOMAXPROCS, and for every value the gathered global field is
// float-for-float identical (compared by IEEE bit pattern) to the fully
// serial run at GOMAXPROCS 1.
func TestParallelTileExecutionDeterministic(t *testing.T) {
	cells := grid.IV(32, 32, 16)
	patches := grid.IV(2, 2, 2)
	const nSteps = 3

	run := func(workers int) *field.Cell {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		prob, u := burgersProblem(cells, patches)
		cfg := functionalCfg(cells, patches, 2, scheduler.ModeAsync, false)
		got, _ := runAndGather(t, cfg, prob, u, nSteps)
		return got
	}

	ref := run(1)
	refData := ref.Data()
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		data := got.Data()
		if len(data) != len(refData) {
			t.Fatalf("workers=%d: field size %d != %d", workers, len(data), len(refData))
		}
		for i := range data {
			if math.Float64bits(data[i]) != math.Float64bits(refData[i]) {
				t.Fatalf("workers=%d: bit mismatch at linear index %d: %x != %x",
					workers, i, math.Float64bits(data[i]), math.Float64bits(refData[i]))
			}
		}
	}
}

// TestParallelTileExecutionDefaultWorkers runs the default (GOMAXPROCS)
// pool against the serial reference on the multi-variable vector system,
// which stages six LDM fields per tile — the heaviest deferred-op shape.
func TestParallelTileExecutionDefaultWorkers(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 1)
	prob, u := burgersProblem(cells, patches)
	const nSteps = 2

	cfg := functionalCfg(cells, patches, 1, scheduler.ModeSync, false)
	procs := runtime.GOMAXPROCS(1)
	want, _ := runAndGather(t, cfg, prob, u, nSteps)
	runtime.GOMAXPROCS(procs)

	prob2, u2 := burgersProblem(cells, patches)
	got, _ := runAndGather(t, cfg, prob2, u2, nSteps)

	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("default workers diverge from serial at %d", i)
		}
	}
}
