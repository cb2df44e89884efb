package grid

import "fmt"

// Box is a half-open axis-aligned box of cells: it contains every cell c
// with Lo <= c < Hi componentwise. An empty box has Hi <= Lo on some axis.
type Box struct {
	Lo, Hi IVec
}

// NewBox constructs a box from its inclusive low corner and exclusive high
// corner.
func NewBox(lo, hi IVec) Box { return Box{Lo: lo, Hi: hi} }

// BoxFromSize constructs a box at lo with the given extents.
func BoxFromSize(lo, size IVec) Box { return Box{Lo: lo, Hi: lo.Add(size)} }

// Size returns the extents Hi-Lo (components may be non-positive for empty
// boxes).
func (b Box) Size() IVec { return b.Hi.Sub(b.Lo) }

// NumCells returns the number of cells, or 0 for an empty box.
func (b Box) NumCells() int64 {
	if b.Empty() {
		return 0
	}
	return b.Size().Volume()
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool {
	s := b.Size()
	return s.X <= 0 || s.Y <= 0 || s.Z <= 0
}

// Contains reports whether cell c lies inside the box.
func (b Box) Contains(c IVec) bool {
	return c.AllGE(b.Lo) && c.X < b.Hi.X && c.Y < b.Hi.Y && c.Z < b.Hi.Z
}

// ContainsBox reports whether o is entirely inside b. An empty o is
// contained in anything.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	return o.Lo.AllGE(b.Lo) && o.Hi.AllLE(b.Hi)
}

// Intersect returns the overlap of the two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	return Box{Lo: b.Lo.Max(o.Lo), Hi: b.Hi.Min(o.Hi)}
}

// Grow returns the box expanded by g cells in every direction (ghost
// margin). Negative g shrinks.
func (b Box) Grow(g int) Box {
	d := IV(g, g, g)
	return Box{Lo: b.Lo.Sub(d), Hi: b.Hi.Add(d)}
}

// ForEach invokes fn for every cell in the box in k-outer, i-inner order
// (x fastest), the layout order used by the fields.
func (b Box) ForEach(fn func(c IVec)) {
	for k := b.Lo.Z; k < b.Hi.Z; k++ {
		for j := b.Lo.Y; j < b.Hi.Y; j++ {
			for i := b.Lo.X; i < b.Hi.X; i++ {
				fn(IVec{i, j, k})
			}
		}
	}
}

// String formats as "[lo,hi)".
func (b Box) String() string { return fmt.Sprintf("[%v,%v)", b.Lo, b.Hi) }
