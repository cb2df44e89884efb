package burgers

import "math"

// Nu is the viscosity of the medium used throughout the paper.
const Nu = 0.01

// Phi coefficient structure, from Section III:
//
//	phi(x,t) = (0.1 e^a + 0.5 e^b + e^c) / (e^a + e^b + e^c)
//	a = -0.05 (x - 0.5 + 4.95 t)/nu
//	b = -0.25 (x - 0.5 + 0.75 t)/nu
//	c = -0.5  (x - 0.375)/nu
//
// Dividing numerator and denominator by the largest of e^a, e^b, e^c
// reduces the number of exponentials from three to two (the paper's
// optimisation), which also prevents overflow for arguments far from the
// wave fronts.

// Counted floating-point operations of one phi evaluation, excluding the
// exponentials: the three exponent arguments (3 ops each: add, mul, mul by
// 1/nu), two max-subtractions for normalisation (2 — only the two non-max
// exponents are shifted), the weighted numerator (4: two mul, two add), the
// denominator (2 adds) and the final divide (1).
const PhiNonExpFlops = 3*3 + 2 + 4 + 2 + 1 // = 18

// PhiExpCount is the number of exponentials per phi evaluation after
// normalisation.
const PhiExpCount = 2

// Phi evaluates phi(x,t) using the given exponential function.
func Phi(x, t float64, exp func(float64) float64) float64 {
	a := -0.05 * (x - 0.5 + 4.95*t) / Nu
	b := -0.25 * (x - 0.5 + 0.75*t) / Nu
	c := -0.5 * (x - 0.375) / Nu
	// Normalise by the largest exponent so one exponential becomes e^0=1.
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	ea := exp(a - m)
	eb := exp(b - m)
	ec := exp(c - m)
	return (0.1*ea + 0.5*eb + ec) / (ea + eb + ec)
}

// phiRef is the straightforward three-exponential evaluation, used in
// tests as the reference for the normalised form.
func phiRef(x, t float64) float64 {
	a := -0.05 * (x - 0.5 + 4.95*t) / Nu
	b := -0.25 * (x - 0.5 + 0.75*t) / Nu
	c := -0.5 * (x - 0.375) / Nu
	// Guard overflow by the same normalisation, with math.Exp.
	m := math.Max(a, math.Max(b, c))
	ea, eb, ec := math.Exp(a-m), math.Exp(b-m), math.Exp(c-m)
	return (0.1*ea + 0.5*eb + ec) / (ea + eb + ec)
}

// Exact returns the manufactured solution u(x,y,z,t) =
// phi(x,t) phi(y,t) phi(z,t), used for the initial condition (t=0), the
// physical boundary conditions, and correctness checks.
func Exact(x, y, z, t float64) float64 {
	return phiRef(x, t) * phiRef(y, t) * phiRef(z, t)
}

// ExactProfile is Exact's factor along one axis (the same for all three):
// Exact(x,y,z,t) == ExactProfile(0,x,t)*ExactProfile(1,y,t)*ExactProfile(2,z,t),
// which is what lets boundary and initial fills evaluate it once per
// index along each axis instead of once per cell.
func ExactProfile(axis int, s, t float64) float64 { return phiRef(s, t) }

// Initial returns the initial condition u(x,y,z,0).
func Initial(x, y, z float64) float64 { return Exact(x, y, z, 0) }

// InitialProfile is Initial's factor along one axis, ExactProfile at t=0.
func InitialProfile(axis int, s float64) float64 { return ExactProfile(axis, s, 0) }

// StableDt returns a forward-Euler-stable timestep for the given cell
// spacings: the diffusive limit dx^2/(2 nu) per direction combined with
// the advective limit dx/|phi|max (|phi| <= 1), with a safety factor.
func StableDt(dx, dy, dz float64) float64 {
	diff := 0.0
	diff += 2 * Nu / (dx * dx)
	diff += 2 * Nu / (dy * dy)
	diff += 2 * Nu / (dz * dz)
	adv := 1/dx + 1/dy + 1/dz // |phi| <= 1
	limit := 1.0 / (diff + adv)
	return 0.9 * limit
}
