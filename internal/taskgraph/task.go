// Package taskgraph implements Uintah's distributed task graph: user-level
// coarse tasks declaring which variables they require and compute, compiled
// against a patch layout and a patch-to-rank assignment into per-rank task
// objects (task × patch), intra-step dependency edges, and the MPI
// communication edges implied by ghost-cell requirements.
//
// Each rank compiles only its own portion of the graph, as in Uintah; the
// compilation is deterministic, so every rank derives identical message
// tags for matching edges.
package taskgraph

import (
	"fmt"
	"slices"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/mpisim"
)

// Label identifies a simulation variable (Uintah's VarLabel). Labels are
// compared by pointer; create each once and share it.
type Label struct {
	name string
	// BC supplies the physical-boundary value at position (x,y,z) and time
	// t, used to fill ghost cells outside the domain. Nil means zero.
	BC func(x, y, z, t float64) float64
	// Profile, when set, declares BC separable:
	//
	//	BC(x,y,z,t) == Profile(0,x,t) * Profile(1,y,t) * Profile(2,z,t)
	//
	// bit for bit, multiplied left to right. Boundary regions are then
	// filled from profiles evaluated once per index and time level
	// (FillBC) instead of one BC call per ghost cell. Set it only through
	// NewSeparableLabel, which derives BC from it.
	Profile func(axis int, s, t float64) float64
	// profiles memoises Profile for FillBC.
	profiles grid.ProfileRing
}

// NewLabel creates a variable label with an optional boundary-condition
// function.
func NewLabel(name string, bc func(x, y, z, t float64) float64) *Label {
	return &Label{name: name, BC: bc}
}

// NewSeparableLabel creates a variable label whose boundary condition is
// the product of one profile per axis (see Label.Profile).
func NewSeparableLabel(name string, profile func(axis int, s, t float64) float64) *Label {
	return &Label{name: name, Profile: profile,
		BC: func(x, y, z, t float64) float64 {
			return profile(0, x, t) * profile(1, y, t) * profile(2, z, t)
		}}
}

// Name returns the label's name.
func (l *Label) Name() string { return l.name }

// DWSel selects which data warehouse a dependency refers to.
type DWSel int

// Warehouse selectors: OldDW holds the previous timestep's results, NewDW
// receives the current timestep's.
const (
	OldDW DWSel = iota
	NewDW
)

// Dep is one requires/computes declaration.
type Dep struct {
	Label *Label
	DW    DWSel
	Ghost int // ghost layers needed (requires only)
}

// Kind classifies tasks by where they execute.
type Kind int

// Task kinds: offloadable numerical kernels run on the CPE cluster (or on
// the MPE in host mode); reductions run on the management element and
// combine a value across ranks.
const (
	KindOffload Kind = iota
	KindReduction
)

// TileContext is passed to a kernel's Compute function for each tile.
// Compute runs in functional mode only.
type TileContext struct {
	Tile grid.Tile
	// In and Out hold each required/computed variable's tile-local view.
	// An input view covers the tile grown by the declared ghost width, an
	// output view the tile interior; reading or writing outside them
	// through At, Set or Index panics.
	In  TileVars
	Out TileVars
	// Time and Dt describe the timestep being computed: Time is the time
	// level of the old warehouse.
	Time float64
	Dt   float64
	// Level provides cell geometry.
	Level *grid.Level
}

// TileVar is one variable's view for one tile.
type TileVar struct {
	Label *Label
	Data  *field.Cell
}

// TileVars is a tile's inputs or outputs in declaration order — a task
// declares a handful, so lookup is a scan, and the scheduler can carve
// every tile's list out of one array per offload.
type TileVars []TileVar

// Get returns l's view. It panics if the task did not declare l.
func (vs TileVars) Get(l *Label) *field.Cell {
	for i := range vs {
		if vs[i].Label == l {
			return vs[i].Data
		}
	}
	panic(fmt.Sprintf("taskgraph: kernel accessed undeclared variable %q", l.Name()))
}

// Kernel describes an offloadable numerical kernel.
type Kernel struct {
	// FlopsPerCell and ExpFlopsPerCell feed the hardware FLOP counters.
	FlopsPerCell    float64
	ExpFlopsPerCell float64
	// Weight scales the calibrated compute time relative to the Burgers
	// kernel (1.0).
	Weight float64
	// Compute performs the tile computation on LDM data (functional runs
	// only).
	Compute func(tc *TileContext)
}

// ReduceSpec describes a reduction task: each rank extracts a local
// partial from its patches' fields and the result is combined with MPI.
type ReduceSpec struct {
	Op mpisim.ReduceOp
	// Local extracts the partial value for one patch (functional mode
	// only; timing-only reductions contribute 0).
	Local func(patch *grid.Patch, f *field.Cell) float64
	// Result receives the globally reduced value on every rank.
	Result func(step int, v float64)
}

// Task is a user-level coarse task. Exactly one of Kernel and Reduce must
// be set, matching Kind.
type Task struct {
	Name     string
	Kind     Kind
	Requires []Dep
	Computes []Dep

	Kernel *Kernel
	Reduce *ReduceSpec

	// Patches restricts the task to the patches for which the predicate
	// returns true; nil means every patch (the common case). The
	// predicate must be a pure, rank-independent function of the patch
	// ID: every rank evaluates it during compilation, and consistent
	// answers are what keep send and recv edges matched. A ghost region
	// whose source patch is excluded is filled from the label's boundary
	// condition instead — each physics region is a Dirichlet-bounded
	// subdomain, the way mixed-physics AMR levels couple through
	// prescribed interface boundaries.
	Patches func(patchID int) bool
}

// AppliesTo reports whether the task runs on the patch. A nil Patches
// predicate applies everywhere.
func (t *Task) AppliesTo(patchID int) bool {
	return t.Patches == nil || t.Patches(patchID)
}

// Validate checks structural consistency of the declaration.
func (t *Task) Validate() error {
	switch t.Kind {
	case KindOffload:
		if t.Kernel == nil {
			return fmt.Errorf("taskgraph: offload task %q has no kernel", t.Name)
		}
		if len(t.Computes) == 0 {
			return fmt.Errorf("taskgraph: offload task %q computes nothing", t.Name)
		}
	case KindReduction:
		if t.Reduce == nil {
			return fmt.Errorf("taskgraph: reduction task %q has no reduce spec", t.Name)
		}
		if len(t.Requires) != 1 {
			return fmt.Errorf("taskgraph: reduction task %q must require exactly one variable", t.Name)
		}
		if t.Requires[0].Ghost != 0 {
			// A reduction runs on no patch, so it has no ghost margin.
			return fmt.Errorf("taskgraph: reduction task %q requires %q with ghost cells", t.Name, t.Requires[0].Label.Name())
		}
	default:
		return fmt.Errorf("taskgraph: task %q has unknown kind %d", t.Name, t.Kind)
	}
	for _, d := range t.Computes {
		if d.DW != NewDW {
			return fmt.Errorf("taskgraph: task %q computes %q into the old warehouse", t.Name, d.Label.Name())
		}
		if d.Ghost != 0 {
			return fmt.Errorf("taskgraph: task %q computes %q with ghost cells", t.Name, d.Label.Name())
		}
	}
	for _, d := range t.Requires {
		if d.Ghost < 0 {
			return fmt.Errorf("taskgraph: task %q requires %q with negative ghost", t.Name, d.Label.Name())
		}
		if d.DW == NewDW && d.Ghost != 0 {
			return fmt.Errorf("taskgraph: task %q requires %q from the new warehouse with ghost cells (intra-step halo exchange is not supported)", t.Name, d.Label.Name())
		}
		if d.DW == NewDW && slices.ContainsFunc(t.Computes, func(c Dep) bool { return c.Label == d.Label }) {
			// Kernels work on views of the warehouse fields and the tiles
			// of one offload run concurrently: updated in place, a
			// variable would change under the kernels still reading it.
			return fmt.Errorf("taskgraph: task %q both requires and computes %q in the new warehouse (in-place update is not supported; compute into a second label)", t.Name, d.Label.Name())
		}
	}
	return nil
}
