package main

import (
	"math"
	"testing"
	"time"

	"sunuintah/internal/burgers"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

func TestFoldByLayer(t *testing.T) {
	stacks := []stack{
		// math.Exp under the kernel costs the kernel's layer.
		{funcs: []string{"math.Exp", "sunuintah/internal/burgers.Advance", "sunuintah/internal/scheduler.(*Rank).ExecuteStep", "sunuintah/internal/sim.(*Process).run"}, count: 4},
		// A channel send inside a process handoff costs sim, not the runtime.
		{funcs: []string{"runtime.chansend", "sunuintah/internal/sim.(*Process).Wait"}, count: 2},
		// No repository frame, scheduler entry points: the Go scheduler.
		{funcs: []string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, count: 2},
		{funcs: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, count: 1},
		// Glue packages and everything unknown are "other".
		{funcs: []string{"runtime.mallocgc", "sunuintah/internal/core.(*Simulation).Run"}, count: 1},
		{funcs: []string{"net/http.(*conn).serve"}, count: 1},
		{funcs: nil, count: 1},
	}
	got := foldByLayer(stacks)
	want := map[string]float64{"burgers": 4.0 / 12, "sim": 2.0 / 12, layerSched: 2.0 / 12, layerGC: 1.0 / 12, layerOther: 3.0 / 12}
	var sum float64
	for layer, frac := range got {
		sum += frac
		if math.Abs(frac-want[layer]) > 1e-12 {
			t.Errorf("%s = %v, want %v", layer, frac, want[layer])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	if len(got) != len(layers)+3 {
		t.Errorf("%d layers reported, want %d", len(got), len(layers)+3)
	}
}

// TestDecodeRecordedProfile records a short real CPU profile of the Burgers
// kernel and checks the decoder and the folder agree it is kernel time.
func TestDecodeRecordedProfile(t *testing.T) {
	lv, err := grid.NewUnitCubeLevel(grid.IV(32, 32, 32), grid.IV(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	dom := lv.Layout.Domain
	in, out := field.NewCellWithGhost(dom, 1), field.NewCell(dom)
	in.FillFunc(in.Alloc(), func(c grid.IVec) float64 { return burgers.Initial(lv.CellCenter(c)) })
	dt := burgers.StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])

	var prof cpuProfile
	if err := prof.start(); err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
		burgers.Advance(in, out, dom, lv, 0, dt, burgers.IEEEExpLib)
	}
	if err := prof.stop(); err != nil {
		t.Fatal(err)
	}
	if len(prof.stacks) == 0 {
		t.Skip("the profiler delivered no samples on this host")
	}
	got := foldByLayer(prof.stacks)
	var sum float64
	for _, frac := range got {
		sum += frac
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	// Under the race detector most samples land in its C runtime, which the
	// profiler cannot unwind, so compare repository layers with each other.
	for _, layer := range layers {
		if layer != "burgers" && got["burgers"] < 5*got[layer] {
			t.Errorf("kernel-only profile: host.burgers_frac = %v but host.%s_frac = %v (all: %v)", got["burgers"], layer, got[layer], got)
		}
	}
	if got["burgers"] == 0 {
		t.Errorf("kernel-only profile: host.burgers_frac = 0 (all: %v)", got)
	}
}
