package burgers

import "sunuintah/internal/grid"

// stencilConsts are a stencil call's cell-invariant coefficients. The
// amd64 tile kernel broadcasts them by offset: keep the field order in
// step with row_amd64.s.
type stencilConsts struct {
	rdx, rdy, rdz, rdx2, rdy2, rdz2, nu, dt float64
}

// newStencilConsts returns the coefficients of a stencil on lv with
// timestep dt.
func newStencilConsts(lv *grid.Level, dt float64) stencilConsts {
	rdx, rdy, rdz := 1/lv.Spacing[0], 1/lv.Spacing[1], 1/lv.Spacing[2]
	return stencilConsts{rdx: rdx, rdy: rdy, rdz: rdz,
		rdx2: rdx * rdx, rdy2: rdy * rdy, rdz2: rdz * rdz, nu: Nu, dt: dt}
}

// stencilRowGo writes the fused update of one row: o[i] is the cell at
// in[base+i], whose neighbours are ±1, ±ys and ±zs away; px[i] is its phi
// along x and py, pz the row's phi along y and z. Each of the seven input
// spans is cut once, to the row's length, so the loop runs without bounds
// checks. The arithmetic is advance's, expression for expression.
func stencilRowGo(o, px, in []float64, base, ys, zs int, py, pz float64, k *stencilConsts) {
	rdx, rdy, rdz, rdx2, rdy2, rdz2, dt := k.rdx, k.rdy, k.rdz, k.rdx2, k.rdy2, k.rdz2, k.dt
	px = px[:len(o)]
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
}
