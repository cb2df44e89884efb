// Package burgers implements the paper's model fluid-flow problem
// (Section III): the 3-D linearised Burgers equation
//
//	du/dt = -phi(x,t) du/dx - phi(y,t) du/dy - phi(z,t) du/dz + nu*Lap(u)
//
// discretised with backward differences for first derivatives, central
// differences for second derivatives, and forward Euler in time, where
// phi(x,t) is the three-wave solution of the 1-D Burgers equation. The
// manufactured solution u(x,y,z,t) = phi(x,t) phi(y,t) phi(z,t) supplies
// the initial and boundary conditions and the correctness reference.
//
// The package provides the scalar reference kernel and the fused kernel
// the runtime executes (Section VI), the fast non-IEEE exponential of
// Section VI-C, and the counted floating-point costs that feed the
// simulated hardware FLOP counters.
package burgers

import "math"

// Exp selects an exponential implementation (Section VI-C: Sunway emulates
// exp in software with an IEEE-conforming library and a faster, slightly
// inaccurate one).
type Exp int

// Exponential library choices.
const (
	// FastExpLib is the fast non-IEEE software exponential (the paper's
	// choice: "as the IEEE conforming library proved to be slow in tests,
	// the fast library was used").
	FastExpLib Exp = iota
	// IEEEExpLib is the IEEE-754-conforming (slow) library.
	IEEEExpLib
)

// Counted floating-point operations per evaluation, as the SW26010
// performance counters would see them (divides count as one operation).
const (
	// FastExpFlops: argument reduction (2) + Cody-Waite remainder (4) +
	// degree-10 Horner polynomial (20).
	FastExpFlops = 26
	// IEEEExpFlops approximates the conforming library's extra-precision
	// arithmetic and special-case handling.
	IEEEExpFlops = 40
	// IEEEExpWeight is the compute-time penalty of the conforming library
	// relative to the fast one, applied to the exponential share of the
	// kernel cost model.
	IEEEExpWeight = 2.5
)

// Exponential reduction constants (Cody–Waite split of ln 2).
const (
	invLn2 = 1.4426950408889634
	ln2Hi  = 6.93147180369123816490e-01
	ln2Lo  = 1.90821492927058770002e-10
)

// FastExp is the fast, non-IEEE software exponential: range reduction
// around ln 2 followed by a degree-10 Taylor polynomial. Relative error is
// below 3e-13 over the normal range — the "some inaccuracy" the paper
// accepts for speed. Overflow and underflow saturate without setting IEEE
// flags.
func FastExp(x float64) float64 {
	switch {
	case x != x: // NaN
		return x
	case x > 709.0:
		return math.Inf(1)
	case x < -745.0:
		return 0
	}
	n := math.Floor(x*invLn2 + 0.5)
	r := x - n*ln2Hi - n*ln2Lo
	// exp(r) for |r| <= ln2/2 by Horner's rule on the Taylor series.
	p := 1.0 / 3628800.0
	p = p*r + 1.0/362880.0
	p = p*r + 1.0/40320.0
	p = p*r + 1.0/5040.0
	p = p*r + 1.0/720.0
	p = p*r + 1.0/120.0
	p = p*r + 1.0/24.0
	p = p*r + 1.0/6.0
	p = p*r + 0.5
	p = p*r + 1.0
	p = p*r + 1.0
	// p·2^n: with n >= -1021 both 2^n and the product are normal (p > 0.7),
	// so one multiply by 2^n built from its exponent bits is exact and
	// equals math.Ldexp, which handles the subnormal tail.
	k := int(n)
	if k >= -1021 {
		return p * math.Float64frombits(uint64(k+1023)<<52)
	}
	return math.Ldexp(p, k)
}

// FastExpSlice evaluates dst[i] = FastExp(src[i]) over contiguous spans,
// unrolled by the paper's SIMD width of 4 (Section VI-B/VI-C: the fast
// exponential vectorises because its range reduction and polynomial are
// branch-free on the normal range). Each lane is exactly FastExp, so the
// results are bit-identical to per-element calls. dst and src must have
// equal length (dst may alias src).
func FastExpSlice(dst, src []float64) {
	const width = 4
	_ = dst[:len(src)]
	i := 0
	for ; i+width <= len(src); i += width {
		dst[i+0] = FastExp(src[i+0])
		dst[i+1] = FastExp(src[i+1])
		dst[i+2] = FastExp(src[i+2])
		dst[i+3] = FastExp(src[i+3])
	}
	for ; i < len(src); i++ {
		dst[i] = FastExp(src[i])
	}
}

// ieeeExpSlice is the batched IEEE-library evaluation.
func ieeeExpSlice(dst, src []float64) {
	_ = dst[:len(src)]
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}

// expSlice dispatches one batched exponential evaluation for the library.
// The choice is made once per span — never per cell — which is what makes
// the monomorphic kernels free of per-element indirect calls.
func (e Exp) expSlice(dst, src []float64) {
	if e == IEEEExpLib {
		ieeeExpSlice(dst, src)
		return
	}
	FastExpSlice(dst, src)
}

// Flops returns the counted operations per exponential for the library.
func (e Exp) Flops() float64 {
	if e == IEEEExpLib {
		return IEEEExpFlops
	}
	return FastExpFlops
}

func (e Exp) String() string {
	if e == IEEEExpLib {
		return "ieee"
	}
	return "fast"
}
