// Package grid provides the structured-mesh substrate of the runtime:
// integer index vectors, axis-aligned cell boxes, patches, regular patch
// layouts with neighbour computation, and TiDA-style tiles sized for the
// SW26010 scratch-pad memory.
//
// The conventions follow Uintah's patch-centric discretisation: the
// computational grid is a single box of cells subdivided into equally sized
// patches; each cell-centred variable lives on a patch, optionally with a
// margin of ghost cells replicated from neighbouring patches or filled from
// boundary conditions.
package grid

import "fmt"

// IVec is a 3-D integer index vector (cell coordinates or extents).
type IVec struct {
	X, Y, Z int
}

// IV is shorthand for constructing an IVec.
func IV(x, y, z int) IVec { return IVec{x, y, z} }

// Add returns a+b.
func (a IVec) Add(b IVec) IVec { return IVec{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a-b.
func (a IVec) Sub(b IVec) IVec { return IVec{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Mul returns the componentwise product a*b.
func (a IVec) Mul(b IVec) IVec { return IVec{a.X * b.X, a.Y * b.Y, a.Z * b.Z} }

// Div returns the componentwise quotient a/b (truncated like Go's /).
func (a IVec) Div(b IVec) IVec { return IVec{a.X / b.X, a.Y / b.Y, a.Z / b.Z} }

// Min returns the componentwise minimum.
func (a IVec) Min(b IVec) IVec {
	return IVec{min(a.X, b.X), min(a.Y, b.Y), min(a.Z, b.Z)}
}

// Max returns the componentwise maximum.
func (a IVec) Max(b IVec) IVec {
	return IVec{max(a.X, b.X), max(a.Y, b.Y), max(a.Z, b.Z)}
}

// Volume returns X*Y*Z. Negative components produce meaningless results;
// callers guard with AllPositive when needed.
func (a IVec) Volume() int64 { return int64(a.X) * int64(a.Y) * int64(a.Z) }

// AllPositive reports whether every component is > 0.
func (a IVec) AllPositive() bool { return a.X > 0 && a.Y > 0 && a.Z > 0 }

// AllGE reports whether a >= b componentwise.
func (a IVec) AllGE(b IVec) bool { return a.X >= b.X && a.Y >= b.Y && a.Z >= b.Z }

// AllLE reports whether a <= b componentwise.
func (a IVec) AllLE(b IVec) bool { return a.X <= b.X && a.Y <= b.Y && a.Z <= b.Z }

// Comp returns the axis-th component (0=X, 1=Y, 2=Z).
func (a IVec) Comp(axis int) int {
	switch axis {
	case 0:
		return a.X
	case 1:
		return a.Y
	case 2:
		return a.Z
	}
	panic(fmt.Sprintf("grid: bad axis %d", axis))
}

// WithComp returns a copy with the axis-th component replaced by v.
func (a IVec) WithComp(axis, v int) IVec {
	switch axis {
	case 0:
		a.X = v
	case 1:
		a.Y = v
	case 2:
		a.Z = v
	default:
		panic(fmt.Sprintf("grid: bad axis %d", axis))
	}
	return a
}

// String formats as "XxYxZ", matching the paper's problem-size notation.
func (a IVec) String() string { return fmt.Sprintf("%dx%dx%d", a.X, a.Y, a.Z) }
