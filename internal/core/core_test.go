package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"

	"sunuintah/internal/burgers"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
)

// burgersProblem builds a functional Burgers setup on an n^3 grid.
func burgersProblem(cells, patches grid.IVec, simd bool) (Problem, *taskgraph.Label) {
	u := burgers.NewULabel()
	dx := 1.0 / float64(cells.X)
	dy := 1.0 / float64(cells.Y)
	dz := 1.0 / float64(cells.Z)
	return Problem{
		Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib, simd)},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
		Dt:      burgers.StableDt(dx, dy, dz),
	}, u
}

func functionalCfg(cells, patches grid.IVec, cgs int, mode scheduler.Mode, simd bool) Config {
	return Config{
		Cells:       cells,
		PatchCounts: patches,
		NumCGs:      cgs,
		Scheduler: scheduler.Config{
			Mode:       mode,
			SIMD:       simd,
			TileSize:   grid.IV(8, 8, 4),
			Functional: true,
		},
	}
}

// runAndGather executes nSteps and returns the final global field.
func runAndGather(t *testing.T, cfg Config, prob Problem, u *taskgraph.Label, nSteps int) (*field.Cell, *Result) {
	t.Helper()
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nSteps)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

func TestFunctionalMatchesSerialReferenceAllVariants(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	const nSteps = 4
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	prob, u := burgersProblem(cells, patches, false)
	ref := burgers.SerialSolve(lv, nSteps, prob.Dt, burgers.FastExpLib)

	cases := []struct {
		name string
		mode scheduler.Mode
		simd bool
		cgs  int
	}{
		{"host.sync-1cg", scheduler.ModeMPEOnly, false, 1},
		{"acc.sync-1cg", scheduler.ModeSync, false, 1},
		{"acc.async-1cg", scheduler.ModeAsync, false, 1},
		{"acc.sync-4cg", scheduler.ModeSync, false, 4},
		{"acc.async-4cg", scheduler.ModeAsync, false, 4},
		{"acc_simd.async-8cg", scheduler.ModeAsync, true, 8},
		{"acc.async-2cg", scheduler.ModeAsync, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob, u := burgersProblem(cells, patches, tc.simd)
			cfg := functionalCfg(cells, patches, tc.cgs, tc.mode, tc.simd)
			got, _ := runAndGather(t, cfg, prob, u, nSteps)
			if d := field.MaxAbsDiff(got, ref, lv.Layout.Domain); d > 1e-13 {
				t.Fatalf("distributed result differs from serial reference by %g", d)
			}
			_ = u
		})
	}
	_ = u
}

func TestSolutionApproachesExact(t *testing.T) {
	cells := grid.IV(24, 24, 24)
	patches := grid.IV(2, 2, 2)
	prob, u := burgersProblem(cells, patches, false)
	cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
	const nSteps = 6
	got, _ := runAndGather(t, cfg, prob, u, nSteps)
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	finalT := float64(nSteps) * prob.Dt
	maxErr := 0.0
	lv.Layout.Domain.ForEach(func(c grid.IVec) {
		x, y, z := lv.CellCenter(c)
		if e := math.Abs(got.At(c) - burgers.Exact(x, y, z, finalT)); e > maxErr {
			maxErr = e
		}
	})
	// Coarse grid, sharp fronts: the scheme is stable and tracks the
	// solution to within the resolution-limited truncation error.
	if maxErr > 0.05 {
		t.Fatalf("error vs exact = %g", maxErr)
	}
}

func TestReductionTaskRuns(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	u := burgers.NewULabel()
	var reduced []float64
	red := &taskgraph.Task{
		Name:     "maxU",
		Kind:     taskgraph.KindReduction,
		Requires: []taskgraph.Dep{{Label: u, DW: taskgraph.NewDW}},
		Reduce: &taskgraph.ReduceSpec{
			Op: 1, // OpMax
			Local: func(p *grid.Patch, f *field.Cell) float64 {
				return field.MaxAbs(f, p.Box)
			},
			Result: func(step int, v float64) { reduced = append(reduced, v) },
		},
	}
	dx := 1.0 / 16
	prob := Problem{
		Tasks: []*taskgraph.Task{
			burgers.NewAdvanceTask(u, burgers.FastExpLib, false),
			red,
		},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
		Dt:      burgers.StableDt(dx, dx, dx),
	}
	cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(reduced) != 3*4 { // once per step per rank
		t.Fatalf("reduction ran %d times, want 12", len(reduced))
	}
	for _, v := range reduced {
		// max|u| is within the convex-combination bounds.
		if v < 0.001 || v > 1.0+1e-9 {
			t.Fatalf("reduced max = %v out of range", v)
		}
	}
	// All ranks see the same value each step.
	for step := 0; step < 3; step++ {
		for r := 1; r < 4; r++ {
			if reduced[step*4+r] != reduced[step*4] {
				t.Fatalf("step %d: rank %d reduced %v != %v", step, r, reduced[step*4+r], reduced[step*4])
			}
		}
	}
}

func TestTableIIIOutOfMemoryReproduced(t *testing.T) {
	// 64x64x512 patches on 1 CG (the whole 512x512x1024 grid, 4 GB of
	// fields) must fail with a memory allocation error; 2 CGs must work.
	prob, _ := burgersProblem(grid.IV(512, 512, 1024), grid.IV(8, 8, 2), false)
	cfg := Config{
		Cells:       grid.IV(512, 512, 1024),
		PatchCounts: grid.IV(8, 8, 2),
		NumCGs:      1,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: false},
	}
	_, err := NewSimulation(cfg, prob)
	var oom *sw26010.ErrOutOfMemory
	if err == nil {
		// Allocation of the second warehouse happens inside the run.
		s, _ := NewSimulation(cfg, prob)
		_, err = s.Run(1)
	}
	if err == nil || !errors.As(err, &oom) {
		t.Fatalf("expected out-of-memory, got %v", err)
	}

	cfg.NumCGs = 2
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1); err != nil {
		t.Fatalf("2 CGs should fit: %v", err)
	}
}

func TestTimingOnlyRunProducesSaneResult(t *testing.T) {
	prob, _ := burgersProblem(grid.IV(128, 128, 1024), grid.IV(8, 8, 2), false)
	cfg := Config{
		Cells:       grid.IV(128, 128, 1024),
		PatchCounts: grid.IV(8, 8, 2),
		NumCGs:      8,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: false},
	}
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime <= 0 || res.PerStep <= 0 {
		t.Fatalf("wall time = %v", res.WallTime)
	}
	wantCells := int64(128*128*1024) * 3
	if res.Counters.CellsComputed != wantCells {
		t.Fatalf("cells computed = %d, want %d", res.Counters.CellsComputed, wantCells)
	}
	if res.Gflops <= 0 || res.Efficiency <= 0 || res.Efficiency > 0.05 {
		t.Fatalf("gflops = %v efficiency = %v", res.Gflops, res.Efficiency)
	}
	if res.BytesOnWire == 0 {
		t.Fatal("multi-rank run must exchange ghost data")
	}
	// Step ends must be increasing.
	for i := 1; i < len(res.StepEnds); i++ {
		if res.StepEnds[i] <= res.StepEnds[i-1] {
			t.Fatalf("step ends not increasing: %v", res.StepEnds)
		}
	}
}

func TestAsyncNotSlowerThanSyncMidSize(t *testing.T) {
	// The headline claim: asynchronous scheduling beats synchronous on a
	// medium problem at a moderate CG count.
	run := func(mode scheduler.Mode) *Result {
		prob, _ := burgersProblem(grid.IV(256, 512, 1024), grid.IV(8, 8, 2), false)
		cfg := Config{
			Cells:       grid.IV(256, 512, 1024),
			PatchCounts: grid.IV(8, 8, 2),
			NumCGs:      16,
			Scheduler:   scheduler.Config{Mode: mode, Functional: false},
		}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	syncRes := run(scheduler.ModeSync)
	asyncRes := run(scheduler.ModeAsync)
	if asyncRes.PerStep >= syncRes.PerStep {
		t.Fatalf("async (%v) not faster than sync (%v)", asyncRes.PerStep, syncRes.PerStep)
	}
}

func TestHostModeSlowerThanOffload(t *testing.T) {
	run := func(mode scheduler.Mode) *Result {
		prob, _ := burgersProblem(grid.IV(128, 128, 1024), grid.IV(8, 8, 2), false)
		cfg := Config{
			Cells:       grid.IV(128, 128, 1024),
			PatchCounts: grid.IV(8, 8, 2),
			NumCGs:      8,
			Scheduler:   scheduler.Config{Mode: mode, Functional: false},
		}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	host := run(scheduler.ModeMPEOnly)
	acc := run(scheduler.ModeAsync)
	boost := float64(host.PerStep / acc.PerStep)
	if boost < 2.0 {
		t.Fatalf("offload boost = %.2f, want > 2 (paper: 2.7-6.0)", boost)
	}
}

func TestConfigValidation(t *testing.T) {
	prob, _ := burgersProblem(grid.IV(8, 8, 8), grid.IV(1, 1, 1), false)
	if _, err := NewSimulation(Config{Cells: grid.IV(8, 8, 8), PatchCounts: grid.IV(1, 1, 1)}, prob); err == nil {
		t.Error("zero CGs should fail")
	}
	bad := prob
	bad.Dt = 0
	if _, err := NewSimulation(Config{Cells: grid.IV(8, 8, 8), PatchCounts: grid.IV(1, 1, 1), NumCGs: 1}, bad); err == nil {
		t.Error("zero dt should fail")
	}
	empty := Problem{Dt: 1}
	if _, err := NewSimulation(Config{Cells: grid.IV(8, 8, 8), PatchCounts: grid.IV(1, 1, 1), NumCGs: 1}, empty); err == nil {
		t.Error("no tasks should fail")
	}
}

func TestCarryForwardValidation(t *testing.T) {
	u := taskgraph.NewLabel("u", nil)
	v := taskgraph.NewLabel("v", nil)
	task := &taskgraph.Task{
		Name: "bad", Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{{Label: u, DW: taskgraph.OldDW, Ghost: 1}},
		Computes: []taskgraph.Dep{{Label: v, DW: taskgraph.NewDW}},
		Kernel:   &taskgraph.Kernel{Weight: 1},
	}
	prob := Problem{Tasks: []*taskgraph.Task{task}, Dt: 0.1}
	cfg := Config{Cells: grid.IV(8, 8, 8), PatchCounts: grid.IV(1, 1, 1), NumCGs: 1,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync}}
	if _, err := NewSimulation(cfg, prob); err == nil {
		t.Fatal("requiring u from old DW without recomputing it should fail")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Result {
		prob, _ := burgersProblem(grid.IV(64, 64, 128), grid.IV(4, 4, 2), false)
		cfg := Config{
			Cells:       grid.IV(64, 64, 128),
			PatchCounts: grid.IV(4, 4, 2),
			NumCGs:      8,
			Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: false},
		}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.WallTime != b.WallTime || a.Counters != b.Counters {
		t.Fatalf("runs diverged: %v vs %v", a.WallTime, b.WallTime)
	}
}

func TestBalancerStrategiesGiveIdenticalSolutions(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	lv, _ := grid.NewUnitCubeLevel(cells, patches)
	prob, u := burgersProblem(cells, patches, false)
	ref := burgers.SerialSolve(lv, 3, prob.Dt, burgers.FastExpLib)
	for _, strat := range []loadbalancer.Strategy{loadbalancer.Block, loadbalancer.RoundRobin, loadbalancer.SFC} {
		cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
		cfg.Balancer = strat
		got, _ := runAndGather(t, cfg, prob, u, 3)
		if d := field.MaxAbsDiff(got, ref, lv.Layout.Domain); d > 1e-13 {
			t.Fatalf("%v balancer differs from reference by %g", strat, d)
		}
	}
}

func TestGatherFieldRequiresFunctional(t *testing.T) {
	prob, u := burgersProblem(grid.IV(16, 16, 16), grid.IV(2, 2, 2), false)
	cfg := functionalCfg(grid.IV(16, 16, 16), grid.IV(2, 2, 2), 2, scheduler.ModeAsync, false)
	cfg.Scheduler.Functional = false
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GatherField(u); err == nil {
		t.Fatal("GatherField in timing-only mode should fail")
	}
}

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

// TestTilePlanMatchesRecordedOutput pins the scheduler's per-patch tile
// plans: for each tiling, two-step runs on four patch layouts (a patch ID
// names a different box in each) and under a round-robin assignment must
// reproduce, byte for byte, results recorded from the code that still had
// live regrid and rebalance.
func TestTilePlanMatchesRecordedOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other ports may fuse multiply-adds in the timing model")
	}
	cases := []struct {
		name       string
		tile       grid.IVec
		functional bool
		want       string
	}{
		{"uniform", grid.IV(8, 8, 4), false, "10c427daa6296fb917a585838381f48835c3c36640984a25f066996a0195c153"},
		{"clipped-tiles", grid.IV(8, 8, 3), false, "e9fd1f4d16f216e69c9554d5d4ab491d10d944b6ccbac07fa2cf7ec03e06354e"},
		{"functional", grid.IV(8, 8, 4), true, "046d2f4bc1206918b4eb6c668a9d5f10d9e4a389d22bd7f8ef32cd71a1559ecb"},
	}
	cells := grid.IV(32, 32, 32)
	runs := []struct {
		patches  grid.IVec
		balancer loadbalancer.Strategy
	}{
		{grid.IV(2, 2, 2), loadbalancer.Block},
		{grid.IV(2, 2, 4), loadbalancer.Block},
		{grid.IV(4, 2, 2), loadbalancer.Block},
		{grid.IV(1, 2, 2), loadbalancer.Block},
		{grid.IV(2, 2, 2), loadbalancer.RoundRobin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for _, r := range runs {
				prob, _ := burgersProblem(cells, r.patches, false)
				s, err := NewSimulation(Config{Cells: cells, PatchCounts: r.patches, NumCGs: 4, Balancer: r.balancer,
					Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: tc.tile, Functional: tc.functional},
				}, prob)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(2)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(blob)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("run results hash %s, recorded %s", got, tc.want)
			}
		})
	}
}
