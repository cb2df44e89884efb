package openacc

import (
	"errors"
	"testing"

	"sunuintah/internal/athread"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
)

func TestParallelLoopBlocksUntilComplete(t *testing.T) {
	eng := sim.NewEngine()
	cg := sw26010.NewMachine(eng, perf.DefaultParams(), 1).CG(0)
	acc := New(cg)
	spec := LoopSpec{Name: "loop", FlopsPerCell: 10, Weight: 1}
	var doneAt sim.Time
	var dur sim.Time
	eng.Spawn("mpe", func(p *sim.Process) {
		dur = acc.ParallelLoop(p, spec, 64, func(c *athread.CPE) {
			c.Compute(1000)
		})
		doneAt = p.Now()
	})
	eng.Run()
	if dur <= 0 {
		t.Fatal("loop consumed no time")
	}
	if doneAt < dur {
		t.Fatalf("ParallelLoop returned at %v before the cluster finished at %v", doneAt, dur)
	}
	if cg.Counters.CellsComputed != 64*1000 {
		t.Fatalf("cells = %d", cg.Counters.CellsComputed)
	}
}

func TestAsyncEntryPointsUnsupported(t *testing.T) {
	eng := sim.NewEngine()
	cg := sw26010.NewMachine(eng, perf.DefaultParams(), 1).CG(0)
	acc := New(cg)
	if _, err := acc.AsyncTest(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("AsyncTest err = %v", err)
	}
	if err := acc.AsyncWait(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("AsyncWait err = %v", err)
	}
}

func TestSequentialLoopsReuseCluster(t *testing.T) {
	eng := sim.NewEngine()
	cg := sw26010.NewMachine(eng, perf.DefaultParams(), 1).CG(0)
	acc := New(cg)
	spec := LoopSpec{Name: "loop", Weight: 1}
	eng.Spawn("mpe", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			acc.ParallelLoop(p, spec, 64, func(c *athread.CPE) { c.Compute(10) })
		}
	})
	eng.Run()
	if cg.Counters.Offloads != 3 {
		t.Fatalf("offloads = %d", cg.Counters.Offloads)
	}
}
