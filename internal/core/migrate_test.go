package core

import (
	"testing"

	"sunuintah/internal/burgers"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/scheduler"
)

func TestRunSegmentsEqualSingleRun(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	prob, u := burgersProblem(cells, patches, false)
	ref := burgers.SerialSolve(lv, 6, prob.Dt, burgers.FastExpLib)

	cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	got, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, lv.Layout.Domain); d > 1e-13 {
		t.Fatalf("segmented run differs from reference by %g", d)
	}
}

func TestRebalancePreservesSolution(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	prob, u := burgersProblem(cells, patches, false)
	ref := burgers.SerialSolve(lv, 6, prob.Dt, burgers.FastExpLib)

	cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	// Shift every patch to a different rank (round-robin instead of
	// block): all eight patches migrate somewhere new or stay per the
	// cyclic deal.
	newAssign, err := loadbalancer.Assign(loadbalancer.RoundRobin, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebalance(newAssign); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for p, r := range s.assign {
		if r != newAssign[p] {
			t.Fatalf("assignment not installed at patch %d", p)
		}
		moved++
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	got, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, lv.Layout.Domain); d > 1e-13 {
		t.Fatalf("rebalanced run differs from reference by %g", d)
	}
}

func TestRebalanceChargesVirtualTime(t *testing.T) {
	cells := grid.IV(32, 32, 32)
	patches := grid.IV(2, 2, 2)
	prob, _ := burgersProblem(cells, patches, false)
	cfg := functionalCfg(cells, patches, 2, scheduler.ModeAsync, false)
	cfg.Scheduler.Functional = false
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	before := s.eng.Now()
	newAssign := []int{1, 0, 1, 0, 1, 0, 1, 0} // everything moves
	if err := s.Rebalance(newAssign); err != nil {
		t.Fatal(err)
	}
	if s.eng.Now() <= before {
		t.Fatal("migration consumed no virtual time")
	}
}

func TestRebalanceValidation(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	prob, _ := burgersProblem(cells, grid.IV(2, 2, 2), false)
	cfg := functionalCfg(cells, grid.IV(2, 2, 2), 2, scheduler.ModeAsync, false)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebalance([]int{0}); err == nil {
		t.Error("short assignment should fail")
	}
	if err := s.Rebalance([]int{0, 0, 0, 0, 0, 0, 0, 9}); err == nil {
		t.Error("out-of-range rank should fail")
	}
}

func TestCheckpointRestartMatchesUninterruptedRun(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	prob, u := burgersProblem(cells, patches, false)
	ref := burgers.SerialSolve(lv, 6, prob.Dt, burgers.FastExpLib)

	// Run 3 steps, checkpoint.
	cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
	s1, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(3); err != nil {
		t.Fatal(err)
	}
	ckpt, err := s1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a DIFFERENT configuration: 2 ranks, synchronous
	// scheduler — the checkpoint is layout-portable.
	prob2, u2 := burgersProblem(cells, patches, false)
	_ = u2
	cfg2 := functionalCfg(cells, patches, 2, scheduler.ModeSync, false)
	// Reuse the same label so GatherField works: rebuild problem with u.
	prob2.Tasks = prob.Tasks
	prob2.Initial = prob.Initial
	s2, err := NewSimulation(cfg2, prob2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.RestoreFromMemory(ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(3); err != nil {
		t.Fatal(err)
	}
	got, err := s2.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, lv.Layout.Domain); d > 1e-13 {
		t.Fatalf("restarted run differs from reference by %g", d)
	}
}

func TestCheckpointValidation(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	prob, _ := burgersProblem(cells, grid.IV(2, 2, 2), false)

	// Timing-only simulations cannot checkpoint.
	cfgT := functionalCfg(cells, grid.IV(2, 2, 2), 2, scheduler.ModeAsync, false)
	cfgT.Scheduler.Functional = false
	sT, err := NewSimulation(cfgT, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sT.Checkpoint(); err == nil {
		t.Error("timing-only checkpoint should fail")
	}

	// Mismatched grids are rejected.
	cfgA := functionalCfg(cells, grid.IV(2, 2, 2), 2, scheduler.ModeAsync, false)
	sA, _ := NewSimulation(cfgA, prob)
	ckpt, err := sA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	probB, _ := burgersProblem(grid.IV(32, 32, 32), grid.IV(2, 2, 2), false)
	cfgB := functionalCfg(grid.IV(32, 32, 32), grid.IV(2, 2, 2), 2, scheduler.ModeAsync, false)
	sB, err := NewSimulation(cfgB, probB)
	if err != nil {
		t.Fatal(err)
	}
	if err := sB.RestoreFromMemory(ckpt); err == nil {
		t.Error("grid mismatch should fail")
	}

	// Restore into an already-run simulation is rejected.
	cfgC := functionalCfg(cells, grid.IV(2, 2, 2), 2, scheduler.ModeAsync, false)
	probC, _ := burgersProblem(cells, grid.IV(2, 2, 2), false)
	probC.Tasks = prob.Tasks
	probC.Initial = prob.Initial
	sC, _ := NewSimulation(cfgC, probC)
	if _, err := sC.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := sC.RestoreFromMemory(ckpt); err == nil {
		t.Error("restore after running should fail")
	}
}

func TestRegridPreservesSolution(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	lv, _ := grid.NewUnitCubeLevel(cells, grid.IV(2, 2, 2))
	prob, u := burgersProblem(cells, grid.IV(2, 2, 2), false)
	ref := burgers.SerialSolve(lv, 6, prob.Dt, burgers.FastExpLib)

	cfg := functionalCfg(cells, grid.IV(2, 2, 2), 4, scheduler.ModeAsync, false)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	// Re-partition the same grid: 8 patches of 8x8x8 become 16 patches of
	// 8x8x4 owned under a fresh block assignment.
	before := s.eng.Now()
	if err := s.Regrid(grid.IV(2, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if s.eng.Now() <= before {
		t.Fatal("regridding consumed no virtual time")
	}
	if s.Level.Layout.NumPatches() != 16 {
		t.Fatalf("patches after regrid = %d", s.Level.Layout.NumPatches())
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	got, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, lv.Layout.Domain); d > 1e-13 {
		t.Fatalf("regridded run differs from reference by %g", d)
	}
}

func TestRegridToCoarserLayout(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	lv, _ := grid.NewUnitCubeLevel(cells, grid.IV(2, 2, 4))
	prob, u := burgersProblem(cells, grid.IV(2, 2, 4), false)
	ref := burgers.SerialSolve(lv, 4, prob.Dt, burgers.FastExpLib)

	cfg := functionalCfg(cells, grid.IV(2, 2, 4), 2, scheduler.ModeSync, false)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Regrid(grid.IV(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	got, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, lv.Layout.Domain); d > 1e-13 {
		t.Fatalf("coarsened run differs from reference by %g", d)
	}
}

func TestRegridRejectsBadLayout(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	prob, _ := burgersProblem(cells, grid.IV(2, 2, 2), false)
	cfg := functionalCfg(cells, grid.IV(2, 2, 2), 2, scheduler.ModeAsync, false)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Regrid(grid.IV(3, 2, 2)); err == nil {
		t.Fatal("indivisible layout should be rejected")
	}
	if err := s.Regrid(grid.IV(1, 1, 1)); err == nil {
		t.Fatal("fewer patches than ranks should be rejected")
	}
}

func TestAutoRebalanceFixesSkewedAssignment(t *testing.T) {
	cells := grid.IV(16, 16, 32)
	patches := grid.IV(2, 2, 4) // 16 patches
	prob, _ := burgersProblem(cells, patches, false)
	cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
	cfg.Scheduler.Functional = false
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AutoRebalance(); err == nil {
		t.Fatal("auto-rebalance before any step should fail")
	}
	// Deliberately skew the load: rank 0 gets 13 patches, others one each.
	skew := make([]int, 16)
	skew[13], skew[14], skew[15] = 1, 2, 3
	if err := s.Rebalance(skew); err != nil {
		t.Fatal(err)
	}
	resSkew, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := s.AutoRebalance()
	if err != nil {
		t.Fatal(err)
	}
	counts := loadbalancer.Counts(assign, 4)
	for r, c := range counts {
		if c != 4 {
			t.Fatalf("rank %d has %d patches after auto-rebalance (uniform costs should even out): %v", r, c, counts)
		}
	}
	resBalanced, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if resBalanced.PerStep >= resSkew.PerStep {
		t.Fatalf("balanced run (%v) not faster than skewed (%v)", resBalanced.PerStep, resSkew.PerStep)
	}
}
