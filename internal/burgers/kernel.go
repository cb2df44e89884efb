package burgers

import (
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// Counted stencil operations per cell, excluding the phi evaluations:
// three backward-difference advection terms (3 ops each), three central
// second differences (4 ops each), the right-hand-side combination (6) and
// the forward-Euler update (2).
const stencilFlops = 3*3 + 3*4 + 6 + 2 // = 29

// KernelFlopsPerCell returns the counted floating-point work of one cell
// update: the stencil plus three phi evaluations of two exponentials each
// ("The Burgers kernel requires 6 exponentials for each cell").
func KernelFlopsPerCell(e Exp) float64 {
	return stencilFlops + 3*(PhiNonExpFlops+PhiExpCount*e.Flops())
}

// ExpFlopsPerCell returns the exponential share of KernelFlopsPerCell.
func ExpFlopsPerCell(e Exp) float64 { return 3 * PhiExpCount * e.Flops() }

// KernelWeight returns the compute-time scale of the kernel relative to
// the calibrated fast-exp kernel: the IEEE-conforming library slows the
// exponential share down by IEEEExpWeight.
func KernelWeight(e Exp) float64 {
	if e != IEEEExpLib {
		return 1
	}
	expShare := ExpFlopsPerCell(FastExpLib) / KernelFlopsPerCell(FastExpLib)
	return (1 - expShare) + expShare*IEEEExpWeight
}

// advance computes the Burgers update over region, reading uOld (which
// must cover region grown by one cell) and writing uNew.
//
// Note on signs: Algorithm 1 in the paper carries a spurious leading minus
// on line 8 (du would flip the sign of every term, including diffusion,
// and the scheme would diverge); the right-hand side implemented here is
// du = (u_dudx + u_dudy + u_dudz) + nu*(d2udx2 + d2udy2 + d2udz2) with
// u_dudx = phi*(u[i-1]-u[i])/dx, which matches Equation 1.
func advance(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, t, dt float64, exp func(float64) float64) {
	dx, dy, dz := lv.Spacing[0], lv.Spacing[1], lv.Spacing[2]
	rdx, rdy, rdz := 1/dx, 1/dy, 1/dz
	rdx2, rdy2, rdz2 := rdx*rdx, rdy*rdy, rdz*rdz
	ys, zs := uOld.Strides()
	data := uOld.Data()
	for k := region.Lo.Z; k < region.Hi.Z; k++ {
		z := lv.Origin[2] + (float64(k)+0.5)*dz
		phiz := Phi(z, t, exp)
		for j := region.Lo.Y; j < region.Hi.Y; j++ {
			y := lv.Origin[1] + (float64(j)+0.5)*dy
			phiy := Phi(y, t, exp)
			base := uOld.Index(grid.IV(region.Lo.X, j, k))
			for i := region.Lo.X; i < region.Hi.X; i++ {
				idx := base + (i - region.Lo.X)
				x := lv.Origin[0] + (float64(i)+0.5)*dx
				// The paper evaluates all three phi coefficients per cell
				// (six exponentials each); phiy and phiz are loop
				// invariants the Sunway port did not hoist either, but
				// hoisting does not change the values, only our simulated
				// flop counters, which charge per cell regardless.
				phix := Phi(x, t, exp)
				u := data[idx]
				uDudx := phix * (data[idx-1] - u) * rdx
				uDudy := phiy * (data[idx-ys] - u) * rdy
				uDudz := phiz * (data[idx-zs] - u) * rdz
				d2udx2 := (-2*u + data[idx-1] + data[idx+1]) * rdx2
				d2udy2 := (-2*u + data[idx-ys] + data[idx+ys]) * rdy2
				d2udz2 := (-2*u + data[idx-zs] + data[idx+zs]) * rdz2
				du := (uDudx + uDudy + uDudz) + Nu*(d2udx2+d2udy2+d2udz2)
				uNew.Set(grid.IV(i, j, k), u+dt*du)
			}
		}
	}
}

// advanceSIMD is the vectorised kernel of Section VI-B: the i loop is
// unrolled by the SIMD width of 4, mirroring the structure of the manual
// intrinsics port (Algorithm 2). Lane arithmetic is element-wise and
// bit-identical to the scalar kernel; the remainder loop handles tile
// widths that are not multiples of four.
func advanceSIMD(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, t, dt float64, exp func(float64) float64) {
	const width = 4
	dx, dy, dz := lv.Spacing[0], lv.Spacing[1], lv.Spacing[2]
	rdx, rdy, rdz := 1/dx, 1/dy, 1/dz
	rdx2, rdy2, rdz2 := rdx*rdx, rdy*rdy, rdz*rdz
	ys, zs := uOld.Strides()
	data := uOld.Data()
	var u, um, up, vy0, vy1, vz0, vz1, phix, du [width]float64
	for k := region.Lo.Z; k < region.Hi.Z; k++ {
		z := lv.Origin[2] + (float64(k)+0.5)*dz
		phiz := Phi(z, t, exp)
		for j := region.Lo.Y; j < region.Hi.Y; j++ {
			y := lv.Origin[1] + (float64(j)+0.5)*dy
			phiy := Phi(y, t, exp)
			base := uOld.Index(grid.IV(region.Lo.X, j, k))
			i := region.Lo.X
			for ; i+width <= region.Hi.X; i += width {
				idx := base + (i - region.Lo.X)
				// SIMD_LOADU-style vector loads.
				for l := 0; l < width; l++ {
					u[l] = data[idx+l]
					um[l] = data[idx+l-1]
					up[l] = data[idx+l+1]
					vy0[l] = data[idx+l-ys]
					vy1[l] = data[idx+l+ys]
					vz0[l] = data[idx+l-zs]
					vz1[l] = data[idx+l+zs]
					x := lv.Origin[0] + (float64(i+l)+0.5)*dx
					phix[l] = Phi(x, t, exp)
				}
				for l := 0; l < width; l++ {
					uDudx := phix[l] * (um[l] - u[l]) * rdx
					uDudy := phiy * (vy0[l] - u[l]) * rdy
					uDudz := phiz * (vz0[l] - u[l]) * rdz
					d2udx2 := (-2*u[l] + um[l] + up[l]) * rdx2
					d2udy2 := (-2*u[l] + vy0[l] + vy1[l]) * rdy2
					d2udz2 := (-2*u[l] + vz0[l] + vz1[l]) * rdz2
					du[l] = (uDudx + uDudy + uDudz) + Nu*(d2udx2+d2udy2+d2udz2)
				}
				for l := 0; l < width; l++ {
					uNew.Set(grid.IV(i+l, j, k), u[l]+dt*du[l])
				}
			}
			if i < region.Hi.X {
				tail := grid.NewBox(grid.IV(i, j, k), grid.IV(region.Hi.X, j+1, k+1))
				advance(uOld, uNew, tail, lv, t, dt, exp)
			}
		}
	}
}

// NewAdvanceTask builds the Burgers timestep task: it requires u from the
// old warehouse with one ghost layer and computes u into the new
// warehouse on the CPE cluster. The functional body is always the
// monomorphic fused kernel (advanceOpt), which is bit-identical to both
// the scalar and 4-wide reference kernels; simd selects only the
// vectorised *cost model* (chosen by the scheduler configuration), since
// the numerics cannot differ.
func NewAdvanceTask(u *taskgraph.Label, e Exp, simd bool) *taskgraph.Task {
	_ = simd
	return &taskgraph.Task{
		Name: "burgers.advance",
		Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{
			{Label: u, DW: taskgraph.OldDW, Ghost: 1},
		},
		Computes: []taskgraph.Dep{
			{Label: u, DW: taskgraph.NewDW},
		},
		Kernel: &taskgraph.Kernel{
			FlopsPerCell:    KernelFlopsPerCell(e),
			ExpFlopsPerCell: ExpFlopsPerCell(e),
			Weight:          KernelWeight(e),
			Compute: func(tc *taskgraph.TileContext) {
				advanceOpt(tc.In.Get(u), tc.Out.Get(u), tc.Tile.Box, tc.Level, tc.Time, tc.Dt, e)
			},
		},
	}
}

// NewULabel creates the solution variable with its exact-solution
// Dirichlet boundary condition, declared separable: the condition is
// Exact, the product of ExactProfile along the three axes.
func NewULabel() *taskgraph.Label {
	return taskgraph.NewSeparableLabel("u", ExactProfile)
}

// SerialSolve advances the whole level's grid nSteps with the fused
// kernel on a single ghosted field, refreshing physical-boundary ghosts
// from the exact solution each step. It is the runtime-free reference
// implementation used to validate the scheduled, distributed execution.
func SerialSolve(lv *grid.Level, nSteps int, dt float64, e Exp) *field.Cell {
	dom := lv.Layout.Domain
	old := field.NewCellWithGhost(dom, 1)
	fresh := field.NewCellWithGhost(dom, 1)
	old.FillFunc(dom, func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return Initial(x, y, z)
	})
	t := 0.0
	for s := 0; s < nSteps; s++ {
		for _, shell := range subtractShell(dom) {
			old.FillFunc(shell, func(c grid.IVec) float64 {
				x, y, z := lv.CellCenter(c)
				return Exact(x, y, z, t)
			})
		}
		advanceOpt(old, fresh, dom, lv, t, dt, e)
		old, fresh = fresh, old
		t += dt
	}
	return old
}

// subtractShell returns the one-cell shell around dom.
func subtractShell(dom grid.Box) []grid.Box {
	var out []grid.Box
	grown := dom.Grow(1)
	for dzi := -1; dzi <= 1; dzi++ {
		for dyi := -1; dyi <= 1; dyi++ {
			for dxi := -1; dxi <= 1; dxi++ {
				if dxi == 0 && dyi == 0 && dzi == 0 {
					continue
				}
				r := shellSide(dom, grown, grid.IV(dxi, dyi, dzi))
				if !r.Empty() {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

func shellSide(box, grown grid.Box, dir grid.IVec) grid.Box {
	r := grown
	for axis := 0; axis < 3; axis++ {
		switch dir.Comp(axis) {
		case -1:
			r.Lo = r.Lo.WithComp(axis, grown.Lo.Comp(axis))
			r.Hi = r.Hi.WithComp(axis, box.Lo.Comp(axis))
		case 0:
			r.Lo = r.Lo.WithComp(axis, box.Lo.Comp(axis))
			r.Hi = r.Hi.WithComp(axis, box.Hi.Comp(axis))
		case 1:
			r.Lo = r.Lo.WithComp(axis, box.Hi.Comp(axis))
			r.Hi = r.Hi.WithComp(axis, grown.Hi.Comp(axis))
		}
	}
	return r
}
