// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VII): the FLOP-per-cell counts (Table I), the
// problem settings (Table III), the scheduler/optimisation variants
// (Table IV), strong scaling (Figure 5, Table V), asynchronous-scheduler
// effectiveness (Tables VI and VII), optimisation-step boosts (Figures
// 6-8), floating-point performance and efficiency (Figures 9 and 10), and
// the future-work ablations of Section IX.
//
// All experiments run the real runtime in timing-only mode: identical
// scheduling, communication and counter behaviour to functional runs, with
// field storage elided so the 1024^3 cases fit anywhere.
package experiments

import (
	"fmt"

	"sunuintah/internal/faults"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
)

// Steps is the number of timesteps per evaluation run ("run for 10
// timesteps for performance evaluation purposes").
const Steps = 10

// PatchCounts is the fixed 8x8x2 layout of 128 patches.
var PatchCounts = grid.IV(8, 8, 2)

// CGCounts are the rank counts of the strong-scaling experiments.
var CGCounts = []int{1, 2, 4, 8, 16, 32, 64, 128}

// ProblemSpec is one row of Table III.
type ProblemSpec struct {
	Name      string
	PatchSize grid.IVec
	GridSize  grid.IVec
	MemBytes  int64 // the two-warehouse field footprint of the whole grid
	MinCGs    int   // smallest CG count that does not hit Table III's memory errors
}

// Problems are the seven problem sizes of Table III, built the way the
// paper describes: start from the smallest possible patch (16x16x512 for
// 16x16x8 tiles on 64 CPEs) and double along x and y round-robin.
var Problems = buildProblems()

func buildProblems() []ProblemSpec {
	sizes := []grid.IVec{
		grid.IV(16, 16, 512),
		grid.IV(16, 32, 512),
		grid.IV(32, 32, 512),
		grid.IV(32, 64, 512),
		grid.IV(64, 64, 512),
		grid.IV(64, 128, 512),
		grid.IV(128, 128, 512),
	}
	mins := []int{1, 1, 1, 1, 2, 4, 8}
	out := make([]ProblemSpec, len(sizes))
	for i, ps := range sizes {
		gs := ps.Mul(PatchCounts)
		out[i] = ProblemSpec{
			Name:      ps.String(),
			PatchSize: ps,
			GridSize:  gs,
			MemBytes:  gs.Volume() * 16, // u in two warehouses
			MinCGs:    mins[i],
		}
	}
	return out
}

// ProblemByName looks a problem up by its patch-size name.
func ProblemByName(name string) (ProblemSpec, error) {
	for _, p := range Problems {
		if p.Name == name {
			return p, nil
		}
	}
	return ProblemSpec{}, fmt.Errorf("experiments: unknown problem %q", name)
}

// Variant is one row of Table IV.
type Variant struct {
	Name string
	Mode scheduler.Mode
	SIMD bool
}

// Variants are the five experimental variants of Table IV.
var Variants = []Variant{
	{"host.sync", scheduler.ModeMPEOnly, false},
	{"acc.sync", scheduler.ModeSync, false},
	{"acc_simd.sync", scheduler.ModeSync, true},
	{"acc.async", scheduler.ModeAsync, false},
	{"acc_simd.async", scheduler.ModeAsync, true},
}

// VariantByName looks a variant up by its Table IV name.
func VariantByName(name string) (Variant, error) {
	for _, v := range Variants {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("experiments: unknown variant %q", name)
}

// Options tweak a run beyond the paper's matrix (future-work ablations and
// the machine-noise measurement protocol).
type Options struct {
	AsyncDMA    bool
	TilePacking bool
	CPEGroups   int
	TileSize    grid.IVec
	Steps       int
	// Noise enables kernel jitter of up to this fraction; Repeats then
	// reruns each case with distinct noise seeds and keeps the fastest,
	// reproducing the paper's protocol: "each case is repeated multiple
	// times and the best result is selected".
	Noise   float64
	Repeats int

	// Faults injects deterministic chaos into every case: a non-zero plan
	// routes runs through core.RunResilient (checkpoint/restart under CG
	// crashes) and participates in the runner's content hash. Nil or
	// all-zero runs fault-free.
	Faults *faults.Plan
}
