package core_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"sunuintah/internal/core"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/physics"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// A warehouse variable keeps its field across steps, so a new-warehouse
// variable starts a step holding whatever it held two steps before, and an
// old-warehouse variable's ghost margin holds last step's ghosts. The test
// below NaN-fills exactly that storage between steps and holds every output
// to an unpoisoned run bit for bit: a cell read before the step writes it
// would carry the NaN into the gathered field. The ghost-margin half is
// also proved on the compiled graph, without running it, by taskgraph's
// TestGhostCellsWrittenOncePerStep (every ghost cell an old-warehouse
// reader needs is written once a step by a copy, a receive or a fill).

// stepper runs a functional simulation one step at a time. With poison
// set, after every step it NaN-fills the old warehouse's ghost margins and
// all of the storage the step retired, which the next step reuses.
type stepper struct {
	s       *core.Simulation
	labels  []*taskgraph.Label
	poison  bool
	retired map[*field.Cell]bool // freed by the last step
}

func newStepper(t *testing.T, cfg core.Config, selector string, poison bool) *stepper {
	t.Helper()
	sel, err := physics.Parse(selector)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sel.NewProblem(cfg.Cells, cfg.PatchCounts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	st := &stepper{s: s, poison: poison}
	for _, task := range prob.Tasks {
		for _, d := range task.Computes {
			st.labels = append(st.labels, d.Label)
		}
	}
	if poison {
		st.poisonGhosts()
	}
	return st
}

// live returns the old warehouse's live fields, with the patch each is on.
func (st *stepper) live() map[*field.Cell]*grid.Patch {
	out := map[*field.Cell]*grid.Patch{}
	for _, rk := range st.s.Ranks {
		for _, l := range st.labels {
			for _, p := range rk.Graph().LocalPatches {
				if rk.DWs.Old.Exists(l, p) {
					out[rk.DWs.Old.Get(l, p)] = p
				}
			}
		}
	}
	return out
}

// owns reports whether any patch holds l.
func (st *stepper) owns(l *taskgraph.Label) bool {
	for _, rk := range st.s.Ranks {
		for _, p := range rk.Graph().LocalPatches {
			if rk.DWs.Old.Exists(l, p) {
				return true
			}
		}
	}
	return false
}

// poisonGhosts NaN-fills every old-warehouse field outside its patch.
func (st *stepper) poisonGhosts() {
	var interior []float64
	for f, p := range st.live() {
		interior = f.Pack(p.Box, interior[:0])
		f.Fill(f.Alloc(), math.NaN())
		f.Unpack(p.Box, interior)
	}
}

// step runs one step. From the second step on, the fields it leaves live
// in the old warehouse must be the very ones the step before retired.
func (st *stepper) step(t *testing.T) {
	t.Helper()
	before := st.live()
	if _, err := st.s.Run(1); err != nil {
		t.Fatal(err)
	}
	if st.retired != nil {
		after := st.live()
		if len(after) != len(st.retired) {
			t.Fatalf("step left %d live fields, the step before retired %d", len(after), len(st.retired))
		}
		for f := range after {
			if !st.retired[f] {
				t.Fatal("a step made a new field instead of reusing a retired one")
			}
		}
	}
	st.retired = map[*field.Cell]bool{}
	for f := range before {
		st.retired[f] = true
		if st.poison {
			f.Fill(f.Alloc(), math.NaN())
		}
	}
	if st.poison {
		st.poisonGhosts()
	}
}

// bits gathers every label's global field as IEEE bit patterns.
func (st *stepper) bits(t *testing.T) []uint64 {
	t.Helper()
	var out []uint64
	for _, l := range st.labels {
		f, err := st.s.GatherField(l)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range f.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d is %g (%#x), want %g (%#x)", what, i,
				math.Float64frombits(got[i]), got[i], math.Float64frombits(want[i]), want[i])
		}
	}
}

func staleCfg(mode scheduler.Mode, simd bool) core.Config {
	return core.Config{
		Cells:       grid.IV(16, 16, 16),
		PatchCounts: grid.IV(4, 2, 2),
		NumCGs:      4,
		Scheduler: scheduler.Config{
			Mode:       mode,
			SIMD:       simd,
			TileSize:   grid.IV(4, 8, 4),
			Functional: true,
		},
	}
}

// TestStaleStorageNeverReachesOutput steps every physics, in async and
// sync mode at GOMAXPROCS 1 and 2, with and without poison, and compares
// the gathered fields after every step.
func TestStaleStorageNeverReachesOutput(t *testing.T) {
	const nSteps = 4
	problems := []struct {
		name, selector string
		simd           bool
	}{
		{"burgers", "burgers", false},
		{"burgers-simd", "burgers", true},
		{"advection", "advection", false},
		{"heat3d", "heat3d", false},
		{"mixed", "mix:burgers=2,advection=1,heat3d=1,seed=3", false},
	}
	for _, pc := range problems {
		for _, mode := range []scheduler.Mode{scheduler.ModeAsync, scheduler.ModeSync} {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%v/procs=%d", pc.name, mode, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					cfg := staleCfg(mode, pc.simd)
					clean := newStepper(t, cfg, pc.selector, false)
					dirty := newStepper(t, cfg, pc.selector, true)
					if pc.name == "mixed" {
						for _, l := range clean.labels {
							if !clean.owns(l) {
								t.Fatalf("no patch runs %s, so the case is not mixed", l.Name())
							}
						}
					}
					for i := 1; i <= nSteps; i++ {
						clean.step(t)
						dirty.step(t)
						sameBits(t, fmt.Sprintf("step %d", i), dirty.bits(t), clean.bits(t))
					}
				})
			}
		}
	}

	// Six poisoned steps in one simulation equal three, a checkpoint, and
	// three more in a fresh simulation whose storage starts zeroed.
	t.Run("restart", func(t *testing.T) {
		cfg := staleCfg(scheduler.ModeAsync, false)
		whole := newStepper(t, cfg, "burgers", true)
		for i := 0; i < 6; i++ {
			whole.step(t)
		}
		first := newStepper(t, cfg, "burgers", true)
		for i := 0; i < 3; i++ {
			first.step(t)
		}
		ckpt, err := first.s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		second := newStepper(t, cfg, "burgers", false)
		if err := second.s.RestoreFromMemory(ckpt); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			second.step(t)
		}
		sameBits(t, "restarted run", second.bits(t), whole.bits(t))
	})
}
