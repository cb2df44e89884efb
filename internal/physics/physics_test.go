package physics

import (
	"math"
	"reflect"
	"testing"

	"sunuintah/internal/advection"
	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/heat3d"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

func TestParseSingles(t *testing.T) {
	for _, name := range Names() {
		sel, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if sel.Mixed() || sel.Canonical() != name {
			t.Fatalf("Parse(%q) -> %+v canonical %q", name, sel, sel.Canonical())
		}
	}
	sel, err := Parse("")
	if err != nil || len(sel.Shares) != 1 || sel.Shares[0].Name != "burgers" {
		t.Fatalf("empty selector: %+v, %v", sel, err)
	}
}

func TestParseMixCanonicalises(t *testing.T) {
	// Order and duplicates normalise; seed is preserved.
	a, err := Parse("mix:heat3d=1,burgers=1,burgers=1,advection=1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := "mix:burgers=2,advection=1,heat3d=1,seed=7"
	if a.Canonical() != want {
		t.Fatalf("canonical = %q, want %q", a.Canonical(), want)
	}
	b, err := Parse(a.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip changed selection: %+v vs %+v", a, b)
	}
}

func TestParseRejects(t *testing.T) {
	for _, s := range []string{
		"navierstokes",
		"mix:burgers",
		"mix:burgers=x",
		"mix:unknown=1",
		"mix:burgers=0,heat3d=0",
		"mix:seed=4",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestSingleWeightMixCollapses(t *testing.T) {
	sel, err := Parse("mix:heat3d=3,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Mixed() || sel.Canonical() != "heat3d" {
		t.Fatalf("one-model mixture should collapse: %+v", sel)
	}
}

func TestAssignDeterministicAndCovering(t *testing.T) {
	sel, err := Parse("mix:burgers=2,advection=1,heat3d=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	a := sel.Assign(128)
	b := sel.Assign(128)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("assignment not deterministic")
	}
	seen := map[int]int{}
	for _, i := range a {
		seen[i]++
	}
	for i := range sel.Shares {
		if seen[i] == 0 {
			t.Fatalf("share %d got no patches out of 128 (distribution suspiciously skewed): %v", i, seen)
		}
	}
	// Different seed, different partition.
	sel2, _ := Parse("mix:burgers=2,advection=1,heat3d=1,seed=4")
	if reflect.DeepEqual(a, sel2.Assign(128)) {
		t.Fatal("assignment ignores the seed")
	}
}

func TestDefaultProblemMatchesHistoricalBurgers(t *testing.T) {
	cells := grid.IV(32, 32, 64)
	sel := Default()
	prob, err := sel.NewProblem(cells, grid.IV(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Tasks) != 1 || prob.Tasks[0].Patches != nil {
		t.Fatalf("default problem shape changed: %+v", prob.Tasks)
	}
	dx, dy, dz := 1.0/32, 1.0/32, 1.0/64
	if prob.Dt != burgers.StableDt(dx, dy, dz) {
		t.Fatalf("default Dt %v != burgers.StableDt %v", prob.Dt, burgers.StableDt(dx, dy, dz))
	}
	if prob.Tasks[0].Name != "burgers.advance" {
		t.Fatalf("default task name %q", prob.Tasks[0].Name)
	}
}

// Burgers declares its initial condition separable (Problem.InitialProfile);
// the t=0 field the simulation builds from it must equal Problem.Initial
// evaluated cell by cell, bit for bit, on a grid with three different
// spacings.
func TestSeparableInitialFillMatchesInitial(t *testing.T) {
	cells, layout := grid.IV(24, 20, 12), grid.IV(2, 2, 1)
	prob, err := Default().NewProblem(cells, layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.InitialProfile) != 1 {
		t.Fatalf("default problem declares %d separable initial conditions, want 1", len(prob.InitialProfile))
	}
	sim, err := core.NewSimulation(core.Config{Cells: cells, PatchCounts: layout, NumCGs: 2,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, Functional: true}}, prob)
	if err != nil {
		t.Fatal(err)
	}
	for l, init := range prob.Initial {
		f, err := sim.GatherField(l)
		if err != nil {
			t.Fatal(err)
		}
		sim.Level.Layout.Domain.ForEach(func(c grid.IVec) {
			if got, want := f.At(c), init(sim.Level.CellCenter(c)); got != want {
				t.Fatalf("cell %v starts at %v, Initial gives %v", c, got, want)
			}
		})
	}
}

// runMixed builds and runs the canonical mixed problem functionally and
// returns the simulation (for gathering) plus the selection.
func runMixed(t *testing.T, shards int) (*core.Simulation, Selection, int) {
	t.Helper()
	sel, err := Parse("mix:burgers=1,advection=1,heat3d=1,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cells := grid.IV(16, 16, 32)
	layout := grid.IV(2, 2, 4)
	prob, err := sel.NewProblem(cells, layout)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Cells:       cells,
		PatchCounts: layout,
		NumCGs:      4,
		Shards:      shards,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, Functional: true},
	}
	sim, err := core.NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 4
	if _, err := sim.Run(steps); err != nil {
		t.Fatal(err)
	}
	return sim, sel, steps
}

// patchRegionSolve computes the per-model reference for a mixed run: on
// each model's own patches, the model solved on the model's subdomain
// with exact-solution values on every region boundary — which is what
// the runtime computes, since foreign-patch ghosts fill from the BC.
// Rather than re-deriving that per region, it checks interior accuracy
// against the exact solutions, which all three models track closely at
// this resolution.
func TestMixedRunTracksEachModel(t *testing.T) {
	sim, sel, steps := runMixed(t, 0)
	finalT := float64(steps) * sim.Prob.Dt
	assign := sel.Assign(sim.Level.Layout.NumPatches())

	type check struct {
		labelName string
		exact     func(x, y, z, t float64) float64
		tol       float64
	}
	checks := map[string]check{
		"burgers":   {"u", burgers.Exact, 0.05},
		"advection": {"q", advection.DefaultVelocity.Exact, 0.05},
		"heat3d":    {"T", heat3d.Exact, 0.05},
	}
	// Locate each model's label in the compiled graph by name.
	labels := map[string]*taskgraph.Label{}
	for _, l := range sim.Ranks[0].Graph().Labels {
		labels[l.Name()] = l
	}
	for si, sh := range sel.Shares {
		c := checks[sh.Name]
		l := labels[c.labelName]
		if l == nil {
			t.Fatalf("label %q missing from compiled graph", c.labelName)
		}
		f, err := sim.GatherField(l)
		if err != nil {
			t.Fatal(err)
		}
		patches := 0
		maxErr := 0.0
		for _, p := range sim.Level.Layout.Patches() {
			if assign[p.ID] != si {
				continue
			}
			patches++
			p.Box.ForEach(func(cell grid.IVec) {
				x, y, z := sim.Level.CellCenter(cell)
				if e := math.Abs(f.At(cell) - c.exact(x, y, z, finalT)); e > maxErr {
					maxErr = e
				}
			})
		}
		if patches == 0 {
			t.Fatalf("model %s got no patches", sh.Name)
		}
		if maxErr > c.tol {
			t.Errorf("model %s: max error %v on its %d patches (tol %v)", sh.Name, maxErr, patches, c.tol)
		}
	}
}

func TestMixedRunBitIdenticalAcrossShards(t *testing.T) {
	base, sel, _ := runMixed(t, 0)
	labels := map[string]*taskgraph.Label{}
	for _, l := range base.Ranks[0].Graph().Labels {
		labels[l.Name()] = l
	}
	_ = sel
	for _, shards := range []int{2, 4} {
		other, _, _ := runMixed(t, shards)
		otherLabels := map[string]*taskgraph.Label{}
		for _, l := range other.Ranks[0].Graph().Labels {
			otherLabels[l.Name()] = l
		}
		for name, l := range labels {
			a, err := base.GatherField(l)
			if err != nil {
				t.Fatal(err)
			}
			b, err := other.GatherField(otherLabels[name])
			if err != nil {
				t.Fatal(err)
			}
			base.Level.Layout.Domain.ForEach(func(c grid.IVec) {
				if a.At(c) != b.At(c) {
					t.Fatalf("label %s cell %v differs at shards=%d: %v vs %v", name, c, shards, a.At(c), b.At(c))
				}
			})
		}
	}
}
