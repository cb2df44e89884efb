package burgers

import (
	"fmt"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

// The optimised kernel of the hot-path overhaul: phi depends only on one
// coordinate and the time level, so the three coefficient profiles are
// precomputed once per region into contiguous slices — O(nx+ny+nz)
// exponentials instead of O(nx*ny*nz) — with the exponentials evaluated
// in batched, monomorphically dispatched spans (FastExpSlice / the IEEE
// library; no per-cell function-pointer call). The stencil loop is then a
// straight-line fused update indexing both fields' raw storage directly.
//
// Every per-element float expression is kept exactly as in advance/Phi,
// so the results are bit-identical to the reference kernels (the cost
// model is unaffected either way: the simulated flop counters charge per
// cell regardless of hoisting).

// Advance applies one Burgers update over region with the monomorphic
// fused kernel — the functional body the runtime executes. Exported for
// external benchmarks (bench's burgers.cells_per_s probe).
func Advance(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, t, dt float64, e Exp) {
	advanceOpt(uOld, uNew, region, lv, t, dt, e)
}

// phiFillAxis fills dst[i-lo] = phi(coord(i), t) for i in [lo, lo+len),
// where coord(i) = origin + (i+0.5)*h. sa, sb, sc are caller scratch of
// at least len(dst) values.
func phiFillAxis(dst []float64, lo int, origin, h, t float64, e Exp, sa, sb, sc []float64) {
	n := len(dst)
	sa, sb, sc = sa[:n], sb[:n], sc[:n]
	for idx := range dst {
		x := origin + (float64(lo+idx)+0.5)*h
		a := -0.05 * (x - 0.5 + 4.95*t) / Nu
		b := -0.25 * (x - 0.5 + 0.75*t) / Nu
		c := -0.5 * (x - 0.375) / Nu
		// Normalise by the largest exponent so one exponential becomes
		// e^0=1, exactly as Phi does.
		m := a
		if b > m {
			m = b
		}
		if c > m {
			m = c
		}
		sa[idx] = a - m
		sb[idx] = b - m
		sc[idx] = c - m
	}
	e.expSlice(sa, sa)
	e.expSlice(sb, sb)
	e.expSlice(sc, sc)
	for idx := range dst {
		ea, eb, ec := sa[idx], sb[idx], sc[idx]
		dst[idx] = (0.1*ea + 0.5*eb + ec) / (ea + eb + ec)
	}
}

// advanceOpt computes the Burgers update over region like advance, with
// hoisted phi profiles and a fused stencil. Bit-identical to advance with
// the same exponential library.
func advanceOpt(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, t, dt float64, e Exp) {
	if region.Empty() {
		return
	}
	sz := region.Size()
	nx, ny, nz := sz.X, sz.Y, sz.Z
	nmax := nx
	if ny > nmax {
		nmax = ny
	}
	if nz > nmax {
		nmax = nz
	}
	// One pooled draw holds the three profiles and phiFillAxis's three
	// work spans; every value is written before it is read.
	scratch := field.GetBuf(nx + ny + nz + 3*nmax)
	scratch = scratch[:cap(scratch)]
	phix, phiy, phiz := scratch[:nx], scratch[nx:nx+ny], scratch[nx+ny:nx+ny+nz]
	work := scratch[nx+ny+nz:]
	sa, sb, sc := work[:nmax], work[nmax:2*nmax], work[2*nmax:3*nmax]
	phiFillAxis(phix, region.Lo.X, lv.Origin[0], lv.Spacing[0], t, e, sa, sb, sc)
	phiFillAxis(phiy, region.Lo.Y, lv.Origin[1], lv.Spacing[1], t, e, sa, sb, sc)
	phiFillAxis(phiz, region.Lo.Z, lv.Origin[2], lv.Spacing[2], t, e, sa, sb, sc)

	dx, dy, dz := lv.Spacing[0], lv.Spacing[1], lv.Spacing[2]
	rdx, rdy, rdz := 1/dx, 1/dy, 1/dz
	rdx2, rdy2, rdz2 := rdx*rdx, rdy*rdy, rdz*rdz
	ys, zs := uOld.Strides()
	oys, ozs := uNew.Strides()
	in := uOld.Data()
	out := uNew.Data()
	// The fields are checked against the stencil's reach once; rows are
	// then reached by stride.
	if !uOld.Alloc().ContainsBox(region.Grow(1)) || !uNew.Alloc().ContainsBox(region) {
		panic(fmt.Sprintf("burgers: region %v needs input over %v and output over itself, got %v and %v",
			region, region.Grow(1), uOld.Alloc(), uNew.Alloc()))
	}
	plane, oplane := uOld.Index(region.Lo), uNew.Index(region.Lo)
	for k := 0; k < nz; k++ {
		pz := phiz[k]
		base, obase := plane, oplane
		for j := 0; j < ny; j++ {
			py := phiy[j]
			for ii := 0; ii < nx; ii++ {
				idx := base + ii
				px := phix[ii]
				u := in[idx]
				uDudx := px * (in[idx-1] - u) * rdx
				uDudy := py * (in[idx-ys] - u) * rdy
				uDudz := pz * (in[idx-zs] - u) * rdz
				d2udx2 := (-2*u + in[idx-1] + in[idx+1]) * rdx2
				d2udy2 := (-2*u + in[idx-ys] + in[idx+ys]) * rdy2
				d2udz2 := (-2*u + in[idx-zs] + in[idx+zs]) * rdz2
				du := (uDudx + uDudy + uDudz) + Nu*(d2udx2+d2udy2+d2udz2)
				out[obase+ii] = u + dt*du
			}
			base += ys
			obase += oys
		}
		plane += zs
		oplane += ozs
	}

	field.PutSlice(scratch)
}
