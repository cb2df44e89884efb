package burgers

import (
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// VectorSystem is the full (self-advecting) vector Burgers system
//
//	du/dt = -(u,v,w) . grad(u) + nu Lap(u)
//	dv/dt = -(u,v,w) . grad(v) + nu Lap(v)
//	dw/dt = -(u,v,w) . grad(w) + nu Lap(w)
//
// — the "full Uintah application" direction the paper's conclusion points
// to. One task computes all three components from all three inputs, so
// each LDM tile must stage six fields (three ghosted inputs, three
// outputs): with the paper's 16x16x8 tile that is 77.8 KB and the LDM
// feasibility check rejects it; an 8x8x8 tile (36.2 KB) fits. The system
// therefore exercises the multi-variable working-set machinery that the
// scalar model problem cannot.
type VectorSystem struct {
	U, V, W *taskgraph.Label
}

// NewVectorSystem creates the three velocity components with scaled
// exact-scalar boundary conditions (each component uses the scalar
// manufactured solution, scaled like its initial data, as Dirichlet data;
// the discrete interior evolves under the full nonlinear coupling).
func NewVectorSystem() *VectorSystem {
	scaled := func(f float64) func(x, y, z, t float64) float64 {
		return func(x, y, z, t float64) float64 { return f * Exact(x, y, z, t) }
	}
	return &VectorSystem{
		U: taskgraph.NewLabel("velU", scaled(1)),
		V: taskgraph.NewLabel("velV", scaled(0.5)),
		W: taskgraph.NewLabel("velW", scaled(0.25)),
	}
}

// Labels returns the three components in order.
func (vs *VectorSystem) Labels() []*taskgraph.Label {
	return []*taskgraph.Label{vs.U, vs.V, vs.W}
}

// Initial returns per-component initial conditions: the scalar solution
// scaled differently per component so the coupling is non-trivial.
func (vs *VectorSystem) Initial() map[*taskgraph.Label]func(x, y, z float64) float64 {
	return map[*taskgraph.Label]func(x, y, z float64) float64{
		vs.U: func(x, y, z float64) float64 { return Initial(x, y, z) },
		vs.V: func(x, y, z float64) float64 { return 0.5 * Initial(x, y, z) },
		vs.W: func(x, y, z float64) float64 { return 0.25 * Initial(x, y, z) },
	}
}

// VectorTileSize is the largest power-of-two-ish tile whose six-field
// working set fits the 64 KB LDM.
var VectorTileSize = grid.IV(8, 8, 8)

// Per-cell counted work: for each of three components, three upwind terms
// (4 ops each: diff, two muls — velocity times difference times 1/dx),
// three second differences (4 ops), combination (6) and update (2).
const vectorFlopsPerCell = 3 * (3*4 + 3*4 + 6 + 2)

// vectorAdvance applies one step of the coupled system on region.
func vectorAdvance(in [3]*field.Cell, out [3]*field.Cell, region grid.Box, lv *grid.Level, dt float64) {
	rdx := 1 / lv.Spacing[0]
	rdy := 1 / lv.Spacing[1]
	rdz := 1 / lv.Spacing[2]
	rdx2, rdy2, rdz2 := rdx*rdx, rdy*rdy, rdz*rdz
	region.ForEach(func(c grid.IVec) {
		xm, xp := c.Sub(grid.IV(1, 0, 0)), c.Add(grid.IV(1, 0, 0))
		ym, yp := c.Sub(grid.IV(0, 1, 0)), c.Add(grid.IV(0, 1, 0))
		zm, zp := c.Sub(grid.IV(0, 0, 1)), c.Add(grid.IV(0, 0, 1))
		au := in[0].At(c)
		av := in[1].At(c)
		aw := in[2].At(c)
		for comp := 0; comp < 3; comp++ {
			q := in[comp].At(c)
			adv := au*(q-in[comp].At(xm))*rdx +
				av*(q-in[comp].At(ym))*rdy +
				aw*(q-in[comp].At(zm))*rdz
			lap := (in[comp].At(xm)+in[comp].At(xp)-2*q)*rdx2 +
				(in[comp].At(ym)+in[comp].At(yp)-2*q)*rdy2 +
				(in[comp].At(zm)+in[comp].At(zp)-2*q)*rdz2
			out[comp].Set(c, q+dt*(-adv+Nu*lap))
		}
	})
}

// NewVectorAdvanceTask builds the coupled timestep task: requires all
// three components from the old warehouse with one ghost layer, computes
// all three into the new warehouse.
func (vs *VectorSystem) NewVectorAdvanceTask() *taskgraph.Task {
	labels := vs.Labels()
	reqs := make([]taskgraph.Dep, 3)
	comps := make([]taskgraph.Dep, 3)
	for i, l := range labels {
		reqs[i] = taskgraph.Dep{Label: l, DW: taskgraph.OldDW, Ghost: 1}
		comps[i] = taskgraph.Dep{Label: l, DW: taskgraph.NewDW}
	}
	return &taskgraph.Task{
		Name:     "burgers.vectorAdvance",
		Kind:     taskgraph.KindOffload,
		Requires: reqs,
		Computes: comps,
		Kernel: &taskgraph.Kernel{
			FlopsPerCell: vectorFlopsPerCell,
			Weight:       0.4, // no exponentials, but 3x the stencil work
			Compute: func(tc *taskgraph.TileContext) {
				var in, out [3]*field.Cell
				for i, l := range labels {
					in[i] = tc.In.Get(l)
					out[i] = tc.Out.Get(l)
				}
				vectorAdvance(in, out, tc.Tile.Box, tc.Level, tc.Dt)
			},
		},
	}
}

// VectorSerialSolve is the runtime-free reference for the coupled system.
func (vs *VectorSystem) VectorSerialSolve(lv *grid.Level, nSteps int, dt float64) [3]*field.Cell {
	dom := lv.Layout.Domain
	var old, fresh [3]*field.Cell
	inits := vs.Initial()
	for i, l := range vs.Labels() {
		old[i] = field.NewCellWithGhost(dom, 1)
		fresh[i] = field.NewCellWithGhost(dom, 1)
		init := inits[l]
		old[i].FillFunc(dom, func(c grid.IVec) float64 {
			x, y, z := lv.CellCenter(c)
			return init(x, y, z)
		})
	}
	t := 0.0
	for s := 0; s < nSteps; s++ {
		shell := dom.Grow(1)
		shell.ForEach(func(c grid.IVec) {
			if dom.Contains(c) {
				return
			}
			x, y, z := lv.CellCenter(c)
			bc := Exact(x, y, z, t)
			old[0].Set(c, bc)
			old[1].Set(c, 0.5*bc)
			old[2].Set(c, 0.25*bc)
		})
		vectorAdvance(old, fresh, dom, lv, dt)
		old, fresh = fresh, old
		t += dt
	}
	return old
}
