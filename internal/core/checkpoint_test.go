package core

import (
	"strings"
	"testing"

	"sunuintah/internal/burgers"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// copyTask builds a kernel that copies its tile of label l through the
// step unchanged — the minimal persistent-state problem. The checkpoint
// simulations run in ModeMPEOnly, so it runs on the MPE.
func copyTask(name string, l *taskgraph.Label) *taskgraph.Task {
	return &taskgraph.Task{
		Name: name, Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{{Label: l, DW: taskgraph.OldDW}},
		Computes: []taskgraph.Dep{{Label: l, DW: taskgraph.NewDW}},
		Kernel: &taskgraph.Kernel{Weight: 0.1, Compute: func(tc *taskgraph.TileContext) {
			tc.Out.Get(l).CopyRegion(tc.In.Get(l), tc.Tile.Box)
		}},
	}
}

// checkpointSim builds a small functional simulation around the given
// tasks and initial conditions.
func checkpointSim(t *testing.T, tasks []*taskgraph.Task, initial map[*taskgraph.Label]func(x, y, z float64) float64) *Simulation {
	t.Helper()
	cfg := functionalCfg(grid.IV(8, 8, 8), grid.IV(2, 1, 1), 2, scheduler.ModeMPEOnly, false)
	s, err := NewSimulation(cfg, Problem{Tasks: tasks, Initial: initial, Dt: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantErrContaining(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error containing %q, got nil", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("want error containing %q, got: %v", frag, err)
	}
}

// TestCheckpointDuplicateLabelRejected: two distinct labels sharing a
// name cannot be checkpointed — the format identifies labels by name, and
// both Checkpoint and RestoreFromMemory must reject the ambiguity.
func TestCheckpointDuplicateLabelRejected(t *testing.T) {
	a := taskgraph.NewLabel("dup", nil)
	b := taskgraph.NewLabel("dup", nil)
	flat := func(x, y, z float64) float64 { return 1 }
	s := checkpointSim(t, []*taskgraph.Task{copyTask("copyA", a), copyTask("copyB", b)},
		map[*taskgraph.Label]func(x, y, z float64) float64{a: flat, b: flat})

	_, err := s.Checkpoint()
	wantErrContaining(t, err, "duplicate label name")

	// The restore side hits the same validation before touching any data.
	good := simpleCheckpointSource(t)
	ckpt, err := good.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wantErrContaining(t, s.RestoreFromMemory(ckpt), "duplicate label name")
}

// simpleCheckpointSource builds a one-label functional simulation and
// returns it (for producing valid checkpoints to corrupt).
func simpleCheckpointSource(t *testing.T) *Simulation {
	t.Helper()
	l := taskgraph.NewLabel("v", nil)
	return checkpointSim(t, []*taskgraph.Task{copyTask("copy", l)},
		map[*taskgraph.Label]func(x, y, z float64) float64{l: func(x, y, z float64) float64 { return x + 2*y + 3*z }})
}

// TestCheckpointGridMismatchRejected: a checkpoint restores only into a
// simulation with the identical grid and patch layout.
func TestCheckpointGridMismatchRejected(t *testing.T) {
	src := simpleCheckpointSource(t)
	ckpt, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	wrongCells := *ckpt
	wrongCells.Cells = grid.IV(16, 16, 16)
	wantErrContaining(t, simpleCheckpointSource(t).RestoreFromMemory(&wrongCells), "does not match simulation")

	wrongPatches := *ckpt
	wrongPatches.PatchCounts = grid.IV(1, 2, 1)
	wantErrContaining(t, simpleCheckpointSource(t).RestoreFromMemory(&wrongPatches), "does not match simulation")
}

// TestCheckpointLabelCountRejected: a checkpoint carrying more or fewer
// labels than the problem's persistent set is rejected, as is a matching
// count with an unknown name.
func TestCheckpointLabelCountRejected(t *testing.T) {
	src := simpleCheckpointSource(t)
	ckpt, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("extra-label", func(t *testing.T) {
		extra := *ckpt
		extra.Labels = append(append([]string(nil), ckpt.Labels...), "ghostlabel")
		extra.Data = append(append([][][]float64(nil), ckpt.Data...), nil)
		wantErrContaining(t, simpleCheckpointSource(t).RestoreFromMemory(&extra), "labels")
	})

	t.Run("unknown-name", func(t *testing.T) {
		renamed := *ckpt
		renamed.Labels = []string{"nosuch"}
		wantErrContaining(t, simpleCheckpointSource(t).RestoreFromMemory(&renamed), "not in this problem")
	})

	t.Run("no-data", func(t *testing.T) {
		noData := *ckpt
		noData.Data = nil
		wantErrContaining(t, simpleCheckpointSource(t).RestoreFromMemory(&noData), "data for 0 labels")
	})

	// Two names for one label would restore it twice and the other never.
	t.Run("name-twice", func(t *testing.T) {
		a, b := taskgraph.NewLabel("a", nil), taskgraph.NewLabel("b", nil)
		flat := func(x, y, z float64) float64 { return 1 }
		pair := func() *Simulation {
			return checkpointSim(t, []*taskgraph.Task{copyTask("copyA", a), copyTask("copyB", b)},
				map[*taskgraph.Label]func(x, y, z float64) float64{a: flat, b: flat})
		}
		twice, err := pair().Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		twice.Labels = []string{"a", "a"}
		wantErrContaining(t, pair().RestoreFromMemory(twice), "appears twice")
	})
}

// TestCheckpointUnpackMismatchRejected: per-patch data whose length does
// not match the patch's cell count is rejected before any value lands in
// a warehouse — also when the bad patch is the last one restored.
func TestCheckpointUnpackMismatchRejected(t *testing.T) {
	src := simpleCheckpointSource(t)
	ckpt, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// corrupt copies the checkpoint deeply enough that bad can edit the
	// per-patch slices.
	corrupt := func(bad func(perPatch [][]float64) [][]float64) *MemCheckpoint {
		c := *ckpt
		c.Data = [][][]float64{bad(append([][]float64(nil), ckpt.Data[0]...))}
		return &c
	}

	t.Run("first-patch-short", func(t *testing.T) {
		first := corrupt(func(pp [][]float64) [][]float64 {
			pp[0] = pp[0][:len(pp[0])-1]
			return pp
		})
		wantErrContaining(t, simpleCheckpointSource(t).RestoreFromMemory(first), "values, want")
	})

	t.Run("too-few-patches", func(t *testing.T) {
		short := corrupt(func(pp [][]float64) [][]float64 { return pp[:1] })
		wantErrContaining(t, simpleCheckpointSource(t).RestoreFromMemory(short), "covers 1 patches")
	})

	// Patch 0 carries recognisable values; the last patch is one value
	// short. The restore must fail without writing patch 0.
	t.Run("last-patch-short", func(t *testing.T) {
		last := corrupt(func(pp [][]float64) [][]float64 {
			pp[0] = make([]float64, len(pp[0]))
			for i := range pp[0] {
				pp[0][i] = 42
			}
			n := len(pp) - 1
			pp[n] = pp[n][:len(pp[n])-1]
			return pp
		})
		dst := simpleCheckpointSource(t)
		labels, err := dst.persistentLabels()
		if err != nil {
			t.Fatal(err)
		}
		patch0 := dst.Level.Layout.Patch(0)
		old := dst.Ranks[0].DWs.Old.Get(labels[0], patch0)
		before := old.Pack(patch0.Box, nil)
		wantErrContaining(t, dst.RestoreFromMemory(last), "values, want")
		for i, v := range old.Pack(patch0.Box, nil) {
			if v != before[i] {
				t.Fatalf("rejected restore wrote patch 0: cell %d is %g, was %g", i, v, before[i])
			}
		}
	})
}

// TestCheckpointTimingOnlyRejected: both directions of the in-memory path
// require functional mode (a timing-only run has no field data).
func TestCheckpointTimingOnlyRejected(t *testing.T) {
	src := simpleCheckpointSource(t)
	ckpt, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	cfg := functionalCfg(grid.IV(8, 8, 8), grid.IV(2, 1, 1), 2, scheduler.ModeMPEOnly, false)
	cfg.Scheduler.Functional = false
	l := taskgraph.NewLabel("v", nil)
	s, err := NewSimulation(cfg, Problem{
		Tasks: []*taskgraph.Task{copyTask("copy", l)},
		Dt:    1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Checkpoint()
	wantErrContaining(t, err, "functional mode")
	wantErrContaining(t, s.RestoreFromMemory(ckpt), "functional mode")
}

// TestCheckpointMemoryRoundTrip: the in-memory path RunResilient now
// uses — Checkpoint into RestoreFromMemory with no serialisation —
// reproduces the uninterrupted run's field bytes.
func TestCheckpointMemoryRoundTrip(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	prob, u := burgersProblem(cells, patches, false)
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
	if _, err := s1.Run(3); err != nil {
		t.Fatal(err)
	}
	ref, err := s1.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := NewSimulation(cfg, prob)
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
	refPacked := ref.Pack(s1.Level.Layout.Domain, nil)
	gotPacked := got.Pack(s2.Level.Layout.Domain, nil)
	for i := range refPacked {
		if refPacked[i] != gotPacked[i] {
			t.Fatalf("restored run diverges at cell %d: %g != %g", i, gotPacked[i], refPacked[i])
		}
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
