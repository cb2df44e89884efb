// Package field implements cell-centred variable storage on patches: a
// contiguous float64 array covering a patch plus an optional ghost margin,
// with region copies and pack/unpack used for ghost exchange and MPI
// payloads.
package field

import (
	"fmt"
	"math"

	"sunuintah/internal/grid"
)

// Cell is a cell-centred double-precision field allocated over a box
// (usually a patch box grown by the ghost width). Storage is x-fastest,
// z-slowest, matching grid.Box.ForEach order.
type Cell struct {
	alloc  grid.Box
	stride [2]int // y stride, z stride (x stride is 1)
	data   []float64
}

// NewCell allocates a field over box (every value zero).
func NewCell(box grid.Box) *Cell {
	if box.Empty() {
		panic(fmt.Sprintf("field: empty allocation box %v", box))
	}
	s := box.Size()
	return &Cell{
		alloc:  box,
		stride: [2]int{s.X, s.X * s.Y},
		data:   make([]float64, box.NumCells()),
	}
}

// NewCellWithGhost allocates a field over interior grown by ghost cells.
func NewCellWithGhost(interior grid.Box, ghost int) *Cell {
	return NewCell(interior.Grow(ghost))
}

// Alloc returns the allocated (ghost-inclusive) box.
func (f *Cell) Alloc() grid.Box { return f.alloc }

// Data exposes the raw storage in allocation order. Kernels use it for
// speed, addressing it with Index and Strides; the slice must not be
// resized. A window's slice starts at the window's first cell and keeps
// the parent's strides, so its rows are not contiguous.
func (f *Cell) Data() []float64 { return f.data }

// Window returns a view of region: a cell over f's own storage, with f's
// strides, whose allocation box is region. Index, At and Set on the view
// panic outside region exactly as they would on a separate field
// allocated over it, and Pack, Unpack, Fill and CopyRegion accept it like
// any other cell; writes land in f. The view is returned by value so a
// caller can keep it inside its own per-tile record without a heap
// allocation. It is valid for f's lifetime. region must be
// non-empty and allocated in f.
func (f *Cell) Window(region grid.Box) Cell {
	if region.Empty() || !f.alloc.ContainsBox(region) {
		panic(fmt.Sprintf("field: window %v outside allocation %v", region, f.alloc))
	}
	lo := f.offset(region.Lo)
	hi := f.offset(region.Hi.Sub(grid.IV(1, 1, 1))) + 1
	return Cell{alloc: region, stride: f.stride, data: f.data[lo:hi:hi]}
}

// offset is Index without the bounds check, for cells already known to
// lie in the allocation.
func (f *Cell) offset(c grid.IVec) int {
	r := c.Sub(f.alloc.Lo)
	return r.Z*f.stride[1] + r.Y*f.stride[0] + r.X
}

// Index returns the storage offset of cell c. It panics if c is outside
// the allocated box.
func (f *Cell) Index(c grid.IVec) int {
	r := c.Sub(f.alloc.Lo)
	if r.X < 0 || r.Y < 0 || r.Z < 0 {
		panic(fmt.Sprintf("field: cell %v below allocation %v", c, f.alloc))
	}
	s := f.alloc.Size()
	if r.X >= s.X || r.Y >= s.Y || r.Z >= s.Z {
		panic(fmt.Sprintf("field: cell %v above allocation %v", c, f.alloc))
	}
	return r.Z*f.stride[1] + r.Y*f.stride[0] + r.X
}

// At returns the value at cell c.
func (f *Cell) At(c grid.IVec) float64 { return f.data[f.Index(c)] }

// Set stores v at cell c.
func (f *Cell) Set(c grid.IVec, v float64) { f.data[f.Index(c)] = v }

// Strides returns (yStride, zStride); the x stride is 1.
func (f *Cell) Strides() (int, int) { return f.stride[0], f.stride[1] }

// Fill sets every cell in region to v. The region must lie inside the
// allocation.
func (f *Cell) Fill(region grid.Box, v float64) {
	f.forRows(region, func(base, n int) {
		row := f.data[base : base+n]
		for i := range row {
			row[i] = v
		}
	})
}

// FillFunc sets every cell in region to fn(c).
func (f *Cell) FillFunc(region grid.Box, fn func(c grid.IVec) float64) {
	region.ForEach(func(c grid.IVec) { f.data[f.Index(c)] = fn(c) })
}

// FillSeparable sets every cell (i,j,k) of region to
// p(0,x_i) * p(1,y_j) * p(2,z_k), multiplied left to right, where x, y, z
// are the level's cell-centre coordinates. It is FillFunc for a function
// declared as a product of three 1-D profiles: each profile is evaluated
// once per index along its axis — nx+ny+nz evaluations, not 3*nx*ny*nz —
// and the products are bit-identical to evaluating
// p(0,x)*p(1,y)*p(2,z) per cell.
func (f *Cell) FillSeparable(region grid.Box, lv *grid.Level, p func(axis int, s float64) float64) {
	if region.Empty() {
		return
	}
	sz := region.Size()
	buf := GetBuf(sz.X + sz.Y + sz.Z)
	for axis := 0; axis < 3; axis++ {
		lo := region.Lo.Comp(axis)
		for i := lo; i < region.Hi.Comp(axis); i++ {
			buf = append(buf, p(axis, lv.Origin[axis]+(float64(i)+0.5)*lv.Spacing[axis]))
		}
	}
	f.FillProduct(region, buf[:sz.X], buf[sz.X:sz.X+sz.Y], buf[sz.X+sz.Y:])
	PutSlice(buf)
}

// FillProduct sets every cell (i,j,k) of region to px[i]*py[j]*pz[k],
// multiplied left to right, with the profiles indexed from region.Lo: it
// is FillSeparable over profiles the caller evaluated. Their lengths must
// be region's extents.
func (f *Cell) FillProduct(region grid.Box, px, py, pz []float64) {
	if region.Empty() {
		return
	}
	sz := region.Size()
	if len(px) != sz.X || len(py) != sz.Y || len(pz) != sz.Z {
		panic(fmt.Sprintf("field: region %v needs profiles of lengths %v, got %d, %d and %d",
			region, sz, len(px), len(py), len(pz)))
	}
	j, k := 0, 0 // forRows visits rows y-fastest
	f.forRows(region, func(base, n int) {
		y, z := py[j], pz[k]
		for i, x := range px {
			f.data[base+i] = x * y * z
		}
		if j++; j == sz.Y {
			j, k = 0, k+1
		}
	})
}

// CopyRegion copies region from src into f. The region must be allocated
// in both fields; cell coordinates are global, so this performs the
// neighbour-ghost copy used by same-rank dependencies.
func (f *Cell) CopyRegion(src *Cell, region grid.Box) {
	if region.Empty() {
		return
	}
	if !f.alloc.ContainsBox(region) {
		panic(fmt.Sprintf("field: copy region %v outside dst allocation %v", region, f.alloc))
	}
	if !src.alloc.ContainsBox(region) {
		panic(fmt.Sprintf("field: copy region %v outside src allocation %v", region, src.alloc))
	}
	// Both base offsets are computed once and advanced by each field's
	// own strides; an x-face (one cell wide) is a strided element copy.
	n := region.Size()
	dPlane, sPlane := f.offset(region.Lo), src.offset(region.Lo)
	for k := 0; k < n.Z; k++ {
		d, s := dPlane, sPlane
		for j := 0; j < n.Y; j++ {
			if n.X == 1 {
				f.data[d] = src.data[s]
			} else {
				copy(f.data[d:d+n.X], src.data[s:s+n.X])
			}
			d += f.stride[0]
			s += src.stride[0]
		}
		dPlane += f.stride[1]
		sPlane += src.stride[1]
	}
}

// Pack appends region's values (in ForEach order) to buf and returns the
// extended slice. Used to serialise ghost regions into MPI payloads.
func (f *Cell) Pack(region grid.Box, buf []float64) []float64 {
	f.forRows(region, func(base, n int) {
		if n == 1 { // an x-face: one strided element per row
			buf = append(buf, f.data[base])
			return
		}
		buf = append(buf, f.data[base:base+n]...)
	})
	return buf
}

// Unpack reads region's values from buf (written by Pack with the same
// region) and returns the remaining tail of buf.
func (f *Cell) Unpack(region grid.Box, buf []float64) []float64 {
	f.forRows(region, func(base, n int) {
		if n == 1 {
			f.data[base] = buf[0]
		} else {
			copy(f.data[base:base+n], buf[:n])
		}
		buf = buf[n:]
	})
	return buf
}

// forRows invokes fn(baseIndex, rowLen) for every x-row of region.
func (f *Cell) forRows(region grid.Box, fn func(base, n int)) {
	if region.Empty() {
		return
	}
	if !f.alloc.ContainsBox(region) {
		panic(fmt.Sprintf("field: region %v outside allocation %v", region, f.alloc))
	}
	sz := region.Size()
	plane := f.offset(region.Lo)
	for k := 0; k < sz.Z; k++ {
		base := plane
		for j := 0; j < sz.Y; j++ {
			fn(base, sz.X)
			base += f.stride[0]
		}
		plane += f.stride[1]
	}
}

// MaxAbsDiff returns the largest absolute difference between f and g over
// region (allocated in both).
func MaxAbsDiff(f, g *Cell, region grid.Box) float64 {
	maxd := 0.0
	region.ForEach(func(c grid.IVec) {
		if d := math.Abs(f.At(c) - g.At(c)); d > maxd {
			maxd = d
		}
	})
	return maxd
}

// MaxAbs returns the largest absolute value of f over region.
func MaxAbs(f *Cell, region grid.Box) float64 {
	maxv := 0.0
	region.ForEach(func(c grid.IVec) {
		if v := math.Abs(f.At(c)); v > maxv {
			maxv = v
		}
	})
	return maxv
}
