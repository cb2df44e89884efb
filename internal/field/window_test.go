package field

import (
	"math/rand"
	"testing"

	"sunuintah/internal/grid"
)

// windowFixture is a 6x5x4 patch with one ghost layer, numbered in
// allocation order, and the window a 3x2x2 tile with one ghost layer takes
// of it.
func windowFixture() (parent *Cell, tile, region grid.Box) {
	parent, _ = ghostedFixtureSized(grid.IV(6, 5, 4))
	tile = grid.NewBox(grid.IV(2, 1, 1), grid.IV(5, 3, 3))
	return parent, tile, tile.Grow(1)
}

func ghostedFixtureSized(size grid.IVec) (*Cell, grid.Box) {
	interior := grid.BoxFromSize(grid.IV(0, 0, 0), size)
	f := NewCellWithGhost(interior, 1)
	i := 0.0
	f.FillFunc(f.Alloc(), func(grid.IVec) float64 {
		i++
		return i
	})
	return f, interior
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestWindowSharesStorageAndBounds(t *testing.T) {
	parent, _, region := windowFixture()
	w := parent.Window(region)
	if w.Alloc() != region {
		t.Fatalf("window allocation %v, want %v", w.Alloc(), region)
	}
	if ys, zs := w.Strides(); ys != parent.stride[0] || zs != parent.stride[1] {
		t.Fatalf("window strides (%d,%d), want the parent's %v", ys, zs, parent.stride)
	}
	region.ForEach(func(c grid.IVec) {
		if w.At(c) != parent.At(c) {
			t.Fatalf("window reads %g at %v, parent holds %g", w.At(c), c, parent.At(c))
		}
		if &w.Data()[w.Index(c)] != &parent.Data()[parent.Index(c)] {
			t.Fatalf("cell %v: window and parent address different storage", c)
		}
	})
	w.Set(region.Lo, -7)
	if parent.At(region.Lo) != -7 {
		t.Fatal("write through the window did not land in the parent")
	}
}

// Every cell one step outside the window — all of them allocated in the
// parent — must be refused by Index, At and Set alike, exactly as a field
// allocated over the window's box would refuse it.
func TestWindowPanicsOneCellOutside(t *testing.T) {
	parent, tile, _ := windowFixture()
	w := parent.Window(tile) // no ghost: its whole rim is parent storage
	rim := 0
	tile.Grow(1).ForEach(func(c grid.IVec) {
		if tile.Contains(c) {
			return
		}
		rim++
		parent.At(c) // allocated in the parent: must not panic
		mustPanic(t, "Index", func() { w.Index(c) })
		mustPanic(t, "At", func() { w.At(c) })
		mustPanic(t, "Set", func() { w.Set(c, 1) })
	})
	if want := int(tile.Grow(1).NumCells() - tile.NumCells()); rim != want {
		t.Fatalf("visited %d rim cells, want %d", rim, want)
	}
	mustPanic(t, "Window beyond the parent", func() { parent.Window(parent.Alloc().Grow(1)) })
	mustPanic(t, "empty Window", func() { parent.Window(grid.Box{}) })
}

func TestWindowPackUnpackCopyRegion(t *testing.T) {
	parent, tile, region := windowFixture()
	w := parent.Window(region)

	// Pack through the window equals Pack of the same region on the parent.
	got, want := w.Pack(tile, nil), parent.Pack(tile, nil)
	if len(got) != len(want) {
		t.Fatalf("packed %d values through the window, %d from the parent", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("packed value %d: %g through the window, %g from the parent", i, got[i], want[i])
		}
	}

	// Unpack and CopyRegion through the window write the parent's cells and
	// nothing else.
	before := append([]float64(nil), parent.Data()...)
	for i := range got {
		got[i] = -got[i]
	}
	if rest := w.Unpack(tile, got); len(rest) != 0 {
		t.Fatalf("unpack left %d values", len(rest))
	}
	src := NewCell(region)
	src.Fill(region, 0.5)
	face := grid.NewBox(region.Lo, grid.IV(region.Lo.X+1, region.Hi.Y, region.Hi.Z))
	w.CopyRegion(src, face)
	parent.Alloc().ForEach(func(c grid.IVec) {
		i := parent.Index(c)
		switch {
		case face.Contains(c):
			if parent.Data()[i] != 0.5 {
				t.Fatalf("cell %v = %g after CopyRegion through the window", c, parent.Data()[i])
			}
		case tile.Contains(c):
			if parent.Data()[i] != -before[i] {
				t.Fatalf("cell %v = %g after Unpack through the window, want %g", c, parent.Data()[i], -before[i])
			}
		default:
			if parent.Data()[i] != before[i] {
				t.Fatalf("cell %v outside the written regions changed: %g -> %g", c, before[i], parent.Data()[i])
			}
		}
	})
	mustPanic(t, "CopyRegion beyond the window", func() { w.CopyRegion(parent, region.Grow(1)) })
}

// CopyRegion against the obvious cell-by-cell copy, over the shapes ghost
// exchange produces — one-cell-wide faces in every direction, edges,
// corners, whole boxes — between fields whose strides differ (different
// sizes, ghost widths, and a window onto a larger field).
func TestPropertyCopyRegionMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 400; iter++ {
		size := grid.IV(1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6))
		box := grid.BoxFromSize(grid.IV(rng.Intn(5)-2, rng.Intn(5)-2, rng.Intn(5)-2), size)
		// A sub-box whose extent along each axis is, at random, one cell
		// (face/edge/corner) or anything up to the full box.
		var region grid.Box
		for axis := 0; axis < 3; axis++ {
			n := 1
			if rng.Intn(2) == 0 {
				n = 1 + rng.Intn(size.Comp(axis))
			}
			lo := box.Lo.Comp(axis) + rng.Intn(size.Comp(axis)-n+1)
			region.Lo = region.Lo.WithComp(axis, lo)
			region.Hi = region.Hi.WithComp(axis, lo+n)
		}
		src := NewCellWithGhost(box, rng.Intn(3))
		src.FillFunc(src.Alloc(), func(grid.IVec) float64 { return rng.Float64() })
		dstParent := NewCellWithGhost(box, 1+rng.Intn(2))
		dst := dstParent
		if rng.Intn(2) == 0 {
			w := dstParent.Window(box)
			dst = &w
		}
		want := NewCell(dstParent.Alloc())
		region.ForEach(func(c grid.IVec) { want.Set(c, src.At(c)) })

		dst.CopyRegion(src, region)
		if d := MaxAbsDiff(dstParent, want, dstParent.Alloc()); d != 0 {
			t.Fatalf("iter %d: region %v of %v copied wrong (max diff %g)", iter, region, box, d)
		}
	}
}

// FillSeparable must reproduce, bit for bit, a per-cell evaluation of the
// product it factors, on regions of every shape.
func TestFillSeparableMatchesFillFunc(t *testing.T) {
	lv, err := grid.NewUnitCubeLevel(grid.IV(12, 10, 8), grid.IV(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	profile := func(axis int, s float64) float64 { return 1/(3+s) + float64(axis)*s*s }
	dom := lv.Layout.Domain
	calls := 0
	counted := func(axis int, s float64) float64 { calls++; return profile(axis, s) }
	for _, region := range []grid.Box{
		dom.Grow(1),
		grid.NewBox(grid.IV(-1, 0, 0), grid.IV(0, 10, 8)),   // x-face in the ghost margin
		grid.NewBox(grid.IV(3, 10, -1), grid.IV(7, 11, 0)),  // an edge
		grid.NewBox(grid.IV(12, 10, 8), grid.IV(13, 11, 9)), // a corner
	} {
		got, want := NewCellWithGhost(dom, 1), NewCellWithGhost(dom, 1)
		want.FillFunc(region, func(c grid.IVec) float64 {
			x, y, z := lv.CellCenter(c)
			return profile(0, x) * profile(1, y) * profile(2, z)
		})
		calls = 0
		got.FillSeparable(region, lv, counted)
		if sz := region.Size(); calls != sz.X+sz.Y+sz.Z {
			t.Errorf("region %v: %d profile evaluations, want %d", region, calls, sz.X+sz.Y+sz.Z)
		}
		got.Alloc().ForEach(func(c grid.IVec) {
			if got.At(c) != want.At(c) {
				t.Fatalf("region %v cell %v: separable %v, per-cell %v", region, c, got.At(c), want.At(c))
			}
		})
	}
	NewCell(dom).FillSeparable(grid.Box{}, lv, profile) // empty region: no-op
}
