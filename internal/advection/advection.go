// Package advection is a second complete model problem for the runtime —
// the 3-D linear advection equation
//
//	du/dt + a . grad(u) = 0
//
// with constant positive velocity a, discretised with first-order upwind
// differences and forward Euler. The exact solution is the translated
// initial profile u(x,t) = g(x - a t), used for initial data, boundary
// conditions and verification. Where the Burgers problem exercises an
// exponential-heavy stencil, this one is a pure streaming kernel with a
// high bytes-per-flop ratio, sitting at the opposite end of the roofline.
package advection

import (
	"math"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// Velocity is the constant advection speed per axis (positive components,
// matching the upwind direction of the kernel).
type Velocity struct {
	Ax, Ay, Az float64
}

// DefaultVelocity is a gently anisotropic transport field.
var DefaultVelocity = Velocity{Ax: 1.0, Ay: 0.5, Az: 0.25}

// Gaussian initial profile centred in the domain.
func gaussian(x, y, z float64) float64 {
	dx, dy, dz := x-0.35, y-0.35, z-0.35
	return math.Exp(-((dx*dx + dy*dy + dz*dz) / 0.06))
}

// Exact returns the translated profile at time t.
func (v Velocity) Exact(x, y, z, t float64) float64 {
	return gaussian(x-v.Ax*t, y-v.Ay*t, z-v.Az*t)
}

// Initial is the t=0 profile.
func (v Velocity) Initial(x, y, z float64) float64 { return v.Exact(x, y, z, 0) }

// StableDt returns a CFL-safe timestep for the given spacings.
func (v Velocity) StableDt(dx, dy, dz float64) float64 {
	s := v.Ax/dx + v.Ay/dy + v.Az/dz
	return 0.9 / s
}

// FlopsPerCell is the counted work of the upwind update: three
// difference/scale terms (3 ops each) plus the combination and Euler
// update.
const FlopsPerCell = 3*3 + 4

// KernelWeight is the compute-time scale relative to the Burgers kernel:
// no exponentials, no divides — a tiny fraction of the cost.
const KernelWeight = 0.04

// NewLabel creates the advected variable with its exact-solution boundary
// condition.
func (v Velocity) NewLabel() *taskgraph.Label {
	return taskgraph.NewLabel("q", func(x, y, z, t float64) float64 {
		return v.Exact(x, y, z, t)
	})
}

// advance applies one upwind Euler step on region.
func (v Velocity) advance(in, out *field.Cell, region grid.Box, lv *grid.Level, dt float64) {
	rdx := 1 / lv.Spacing[0]
	rdy := 1 / lv.Spacing[1]
	rdz := 1 / lv.Spacing[2]
	ys, zs := in.Strides()
	data := in.Data()
	for k := region.Lo.Z; k < region.Hi.Z; k++ {
		for j := region.Lo.Y; j < region.Hi.Y; j++ {
			base := in.Index(grid.IV(region.Lo.X, j, k))
			for i := region.Lo.X; i < region.Hi.X; i++ {
				idx := base + (i - region.Lo.X)
				u := data[idx]
				du := v.Ax*(u-data[idx-1])*rdx +
					v.Ay*(u-data[idx-ys])*rdy +
					v.Az*(u-data[idx-zs])*rdz
				out.Set(grid.IV(i, j, k), u-dt*du)
			}
		}
	}
}

// NewAdvanceTask builds the advection timestep task in the same shape as
// the Burgers one: requires q from the old warehouse with one ghost layer,
// computes q into the new warehouse on the CPE cluster.
func (v Velocity) NewAdvanceTask(q *taskgraph.Label) *taskgraph.Task {
	return &taskgraph.Task{
		Name: "advection.advance",
		Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{
			{Label: q, DW: taskgraph.OldDW, Ghost: 1},
		},
		Computes: []taskgraph.Dep{
			{Label: q, DW: taskgraph.NewDW},
		},
		Kernel: &taskgraph.Kernel{
			FlopsPerCell: FlopsPerCell,
			Weight:       KernelWeight,
			Compute: func(tc *taskgraph.TileContext) {
				v.advance(tc.In.Get(q), tc.Out.Get(q), tc.Tile.Box, tc.Level, tc.Dt)
			},
		},
	}
}

// SerialSolve is the runtime-free reference: the whole grid advanced on a
// single ghosted field with exact-solution boundary ghosts.
func (v Velocity) SerialSolve(lv *grid.Level, nSteps int, dt float64) *field.Cell {
	dom := lv.Layout.Domain
	old := field.NewCellWithGhost(dom, 1)
	fresh := field.NewCellWithGhost(dom, 1)
	old.FillFunc(dom, func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return v.Initial(x, y, z)
	})
	t := 0.0
	for s := 0; s < nSteps; s++ {
		shell := dom.Grow(1)
		shell.ForEach(func(c grid.IVec) {
			if dom.Contains(c) {
				return
			}
			x, y, z := lv.CellCenter(c)
			old.Set(c, v.Exact(x, y, z, t))
		})
		v.advance(old, fresh, dom, lv, dt)
		old, fresh = fresh, old
		t += dt
	}
	return old
}
