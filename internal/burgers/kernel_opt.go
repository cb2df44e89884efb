package burgers

import (
	"fmt"
	"sync"

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
// axes (phix[i] at x index region.Lo.X+i, and so on). Each row's seven
// input spans and its output span are cut once, to the row's length, so
// the cell loop runs without bounds checks.
func stencil(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, dt float64, phix, phiy, phiz []float64) {
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
	nx := len(phix)
	plane, oplane := uOld.Index(region.Lo), uNew.Index(region.Lo)
	for _, pz := range phiz {
		base, obase := plane, oplane
		for _, py := range phiy {
			o := out[obase:][:nx]
			px := phix[:len(o)]
			c := in[base:][:len(o)]
			xm := in[base-1:][:len(o)]
			xp := in[base+1:][:len(o)]
			ym := in[base-ys:][:len(o)]
			yp := in[base+ys:][:len(o)]
			zm := in[base-zs:][:len(o)]
			zp := in[base+zs:][:len(o)]
			for i := range o {
				u := c[i]
				uDudx := px[i] * (xm[i] - u) * rdx
				uDudy := py * (ym[i] - u) * rdy
				uDudz := pz * (zm[i] - u) * rdz
				d2udx2 := (-2*u + xm[i] + xp[i]) * rdx2
				d2udy2 := (-2*u + ym[i] + yp[i]) * rdy2
				d2udz2 := (-2*u + zm[i] + zp[i]) * rdz2
				du := (uDudx + uDudy + uDudz) + Nu*(d2udx2+d2udy2+d2udz2)
				o[i] = u + dt*du
			}
			base += ys
			obase += oys
		}
		plane += zs
		oplane += ozs
	}
}

// phiLevels is how many time levels a phiCache keeps: a rank a step behind
// the others, or a job still draining the previous step, finds its
// profiles too.
const phiLevels = 4

// phiProfiles is phi along the three axes of a level's whole domain at one
// time level, indexed from the domain's low corner. It is never written
// after it is built, so tiles on any goroutine read it unlocked.
type phiProfiles struct {
	lv      *grid.Level
	t       float64
	x, y, z []float64
}

// phiCache is the Burgers task's φ memo: a tile at a time level it has
// seen slices the level's profiles instead of evaluating its own (120
// exponentials for a 16x16x8 tile), and each (level, time level) costs one
// evaluation and one allocation. Slicing is bit-identical because phi at
// an index does not depend on the span it is computed in.
type phiCache struct {
	e    Exp
	mu   sync.Mutex
	ring [phiLevels]phiProfiles
	next int
}

// profiles returns the level's profiles at time level t, building them on
// first use under the lock, so no time level is evaluated twice while it
// stays in the ring.
func (c *phiCache) profiles(lv *grid.Level, t float64) phiProfiles {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.ring {
		if p.lv == lv && p.t == t {
			return p
		}
	}
	dom := lv.Layout.Domain
	sz := dom.Size()
	work := field.GetBuf(3 * max(sz.X, sz.Y, sz.Z))
	x, y, z := fillProfiles(make([]float64, sz.X+sz.Y+sz.Z), work[:cap(work)], dom, lv, t, c.e)
	field.PutSlice(work)
	p := phiProfiles{lv: lv, t: t, x: x, y: y, z: z}
	c.ring[c.next] = p
	c.next = (c.next + 1) % phiLevels
	return p
}

// advance is advanceOpt with the profiles sliced from the cache. region
// must lie in the level's domain, as every tile of its patches does.
func (c *phiCache) advance(uOld, uNew *field.Cell, region grid.Box, lv *grid.Level, t, dt float64) {
	p := c.profiles(lv, t)
	dom := lv.Layout.Domain
	lo, hi := region.Lo.Sub(dom.Lo), region.Hi.Sub(dom.Lo)
	stencil(uOld, uNew, region, lv, dt, p.x[lo.X:hi.X], p.y[lo.Y:hi.Y], p.z[lo.Z:hi.Z])
}
