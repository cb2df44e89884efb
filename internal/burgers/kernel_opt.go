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
// library; no per-cell function-pointer call). The stencil is then a fused
// update, a tile at a time (row.go), indexing both fields' raw storage
// directly.
//
// Every per-element float expression is kept exactly as in advance/Phi,
// so the results are bit-identical to the reference kernels (the cost
// model is unaffected either way: the simulated flop counters charge per
// cell regardless of hoisting).

// Advance applies one Burgers update over region with the monomorphic
// fused kernel, evaluating its own phi profiles (the runtime's task slices
// the same values from its per-time-level cache). Exported for external
// benchmarks (bench's burgers.cells_per_s probe).
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
	// One pooled draw holds the three profiles and phiFillAxis's three
	// work spans; every value is written before it is read.
	scratch := field.GetBuf(nx + ny + nz + 3*max(nx, ny, nz))
	scratch = scratch[:cap(scratch)]
	phix, phiy, phiz := fillProfiles(scratch, scratch[nx+ny+nz:], region, lv, t, e)
	stencil(uOld, uNew, region, lv, dt, phix, phiy, phiz)
	field.PutSlice(scratch)
}

// fillProfiles writes phi along the three axes of box at time level t into
// the front of prof, using work (three spans as long as box's longest side)
// as scratch.
func fillProfiles(prof, work []float64, box grid.Box, lv *grid.Level, t float64, e Exp) (phix, phiy, phiz []float64) {
	sz := box.Size()
	nx, ny, nz := sz.X, sz.Y, sz.Z
	nmax := max(nx, ny, nz)
	phix, phiy, phiz = prof[:nx], prof[nx:nx+ny], prof[nx+ny:nx+ny+nz]
	sa, sb, sc := work[:nmax], work[nmax:2*nmax], work[2*nmax:3*nmax]
	phiFillAxis(phix, box.Lo.X, lv.Origin[0], lv.Spacing[0], t, e, sa, sb, sc)
	phiFillAxis(phiy, box.Lo.Y, lv.Origin[1], lv.Spacing[1], t, e, sa, sb, sc)
	phiFillAxis(phiz, box.Lo.Z, lv.Origin[2], lv.Spacing[2], t, e, sa, sb, sc)
	return phix, phiy, phiz
}

// stencil applies the fused update over region given phi along its three
// axes (phix[i] at x index region.Lo.X+i, and so on): one call of the
// vector tile kernel over the columns it takes, then stencilRowGo on each
// row's remaining columns. Every reach is checked against the fields'
// allocations and the profiles' lengths before any cell is written: the
// vector kernel has no bounds checks of its own.
func stencil(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, dt float64, phix, phiy, phiz []float64) {
	if !uOld.Alloc().ContainsBox(region.Grow(1)) || !uNew.Alloc().ContainsBox(region) {
		panic(fmt.Sprintf("burgers: region %v needs input over %v and output over itself, got %v and %v",
			region, region.Grow(1), uOld.Alloc(), uNew.Alloc()))
	}
	sz := region.Size()
	if len(phix) != sz.X || len(phiy) != sz.Y || len(phiz) != sz.Z {
		panic(fmt.Sprintf("burgers: region %v needs phi profiles of lengths %v, got %d, %d and %d",
			region, sz, len(phix), len(phiy), len(phiz)))
	}
	if region.Empty() {
		return
	}
	k := newStencilConsts(lv, dt)
	ys, zs := uOld.Strides()
	oys, ozs := uNew.Strides()
	in := uOld.Data()
	out := uNew.Data()
	plane, oplane := uOld.Index(region.Lo), uNew.Index(region.Lo)
	n := stencilVec(out, in, oplane, plane, phix, phiy, phiz, ys, zs, oys, ozs, &k)
	if n == sz.X { // a tile is usually a multiple of four cells wide
		return
	}
	plane, oplane, phix = plane+n, oplane+n, phix[n:]
	for _, pz := range phiz {
		base, obase := plane, oplane
		for _, py := range phiy {
			stencilRowGo(out[obase:][:len(phix)], phix, in, base, ys, zs, py, pz, &k)
			base += ys
			obase += oys
		}
		plane += zs
		oplane += ozs
	}
}

// phiCache is the Burgers task's φ memo: a tile at a time level it has
// seen slices the profiles over the level's whole domain instead of
// evaluating its own (120 exponentials for a 16x16x8 tile), and each
// (level, time level) costs one evaluation and one allocation. Slicing is
// bit-identical because phi at an index does not depend on the span it is
// computed in.
type phiCache struct {
	e    Exp
	ring grid.ProfileRing
}

// advance is advanceOpt with the profiles sliced from the cache. region
// must lie in the level's domain, as every tile of its patches does.
func (c *phiCache) advance(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, t, dt float64) {
	dom := lv.Layout.Domain
	p := c.ring.Get(lv, dom, t, func(prof []float64) {
		sz := dom.Size()
		work := field.GetBuf(3 * max(sz.X, sz.Y, sz.Z))
		fillProfiles(prof, work[:cap(work)], dom, lv, t, c.e)
		field.PutSlice(work)
	})
	phix, phiy, phiz := p.Slice(region)
	stencil(uOld, uNew, region, lv, dt, phix, phiy, phiz)
}
