// Package heat3d is a third complete model problem for the runtime — the
// 3-D heat equation
//
//	du/dt = alpha * Lap(u)
//
// discretised with a 7-point Laplacian and forward Euler. The
// manufactured solution u = exp(-3 alpha pi^2 t) sin(pi x) sin(pi y)
// sin(pi z) supplies initial data, boundary conditions and verification.
// Where Burgers is exponential-heavy and advection is pure streaming,
// the heat stencil sits between them: arithmetic-only like advection but
// with a wider read pattern, a mid-roofline workload for mixed-physics
// scenarios.
package heat3d

import (
	"math"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// Alpha is the thermal diffusivity of the model problem.
const Alpha = 0.05

// FlopsPerCell is the counted work of the 7-point update: three
// second-difference terms (4 ops each) plus the Euler combination.
const FlopsPerCell = 14

// KernelWeight is the compute-time scale relative to the Burgers kernel:
// no exponentials, slightly more arithmetic than upwind advection.
const KernelWeight = 0.05

// Exact returns the manufactured solution at (x,y,z,t).
func Exact(x, y, z, t float64) float64 {
	return math.Exp(-3*Alpha*math.Pi*math.Pi*t) *
		math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
}

// Initial is the t=0 profile.
func Initial(x, y, z float64) float64 { return Exact(x, y, z, 0) }

// StableDt returns a stability-safe explicit timestep for the spacings
// (0.2 of the diffusive limit, matching the historical heat3d example:
// 0.2*dx^2/(6*Alpha) on a cubic grid).
func StableDt(dx, dy, dz float64) float64 {
	s := 1/(dx*dx) + 1/(dy*dy) + 1/(dz*dz)
	return 0.2 / (2 * Alpha * s)
}

// NewLabel creates the temperature variable with its exact-solution
// boundary condition.
func NewLabel() *taskgraph.Label {
	return taskgraph.NewLabel("T", Exact)
}

// advance applies one forward-Euler Laplacian step on region, reading
// the flat backing array with precomputed strides like the advection and
// Burgers kernels do.
func advance(in, out *field.Cell, region grid.Box, lv *grid.Level, dt float64) {
	dx, dy, dz := lv.Spacing[0], lv.Spacing[1], lv.Spacing[2]
	rdx2, rdy2, rdz2 := 1/(dx*dx), 1/(dy*dy), 1/(dz*dz)
	ys, zs := in.Strides()
	data := in.Data()
	for k := region.Lo.Z; k < region.Hi.Z; k++ {
		for j := region.Lo.Y; j < region.Hi.Y; j++ {
			base := in.Index(grid.IV(region.Lo.X, j, k))
			for i := region.Lo.X; i < region.Hi.X; i++ {
				idx := base + (i - region.Lo.X)
				v := data[idx]
				lap := (data[idx+1]+data[idx-1]-2*v)*rdx2 +
					(data[idx+ys]+data[idx-ys]-2*v)*rdy2 +
					(data[idx+zs]+data[idx-zs]-2*v)*rdz2
				out.Set(grid.IV(i, j, k), v+dt*Alpha*lap)
			}
		}
	}
}

// NewAdvanceTask builds the heat timestep task in the same shape as the
// Burgers and advection ones: requires T from the old warehouse with one
// ghost layer, computes T into the new warehouse on the CPE cluster.
func NewAdvanceTask(u *taskgraph.Label) *taskgraph.Task {
	return &taskgraph.Task{
		Name: "heat.advance",
		Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{
			{Label: u, DW: taskgraph.OldDW, Ghost: 1},
		},
		Computes: []taskgraph.Dep{
			{Label: u, DW: taskgraph.NewDW},
		},
		Kernel: &taskgraph.Kernel{
			FlopsPerCell: FlopsPerCell,
			Weight:       KernelWeight,
			Compute: func(tc *taskgraph.TileContext) {
				advance(tc.In.Get(u), tc.Out.Get(u), tc.Tile.Box, tc.Level, tc.Dt)
			},
		},
	}
}

// SerialSolve is the runtime-free reference: the whole grid advanced on
// a single ghosted field with exact-solution boundary ghosts.
func SerialSolve(lv *grid.Level, nSteps int, dt float64) *field.Cell {
	dom := lv.Layout.Domain
	old := field.NewCellWithGhost(dom, 1)
	fresh := field.NewCellWithGhost(dom, 1)
	old.FillFunc(dom, func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return Initial(x, y, z)
	})
	t := 0.0
	for s := 0; s < nSteps; s++ {
		shell := dom.Grow(1)
		shell.ForEach(func(c grid.IVec) {
			if dom.Contains(c) {
				return
			}
			x, y, z := lv.CellCenter(c)
			old.Set(c, Exact(x, y, z, t))
		})
		advance(old, fresh, dom, lv, dt)
		old, fresh = fresh, old
		t += dt
	}
	return old
}
