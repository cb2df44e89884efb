package field

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sunuintah/internal/grid"
)

func box(lo, hi grid.IVec) grid.Box { return grid.NewBox(lo, hi) }

func TestIndexRoundTrip(t *testing.T) {
	f := NewCell(box(grid.IV(-1, -1, -1), grid.IV(3, 4, 5)))
	seen := map[int]bool{}
	f.Alloc().ForEach(func(c grid.IVec) {
		idx := f.Index(c)
		if seen[idx] {
			t.Fatalf("index %d reused at %v", idx, c)
		}
		seen[idx] = true
	})
	if int64(len(seen)) != f.Alloc().NumCells() {
		t.Fatalf("indexed %d cells, want %d", len(seen), f.Alloc().NumCells())
	}
}

func TestIndexOrderMatchesForEach(t *testing.T) {
	f := NewCell(box(grid.IV(0, 0, 0), grid.IV(3, 3, 3)))
	want := 0
	f.Alloc().ForEach(func(c grid.IVec) {
		if f.Index(c) != want {
			t.Fatalf("index(%v) = %d, want %d", c, f.Index(c), want)
		}
		want++
	})
}

func TestAtSet(t *testing.T) {
	f := NewCellWithGhost(box(grid.IV(0, 0, 0), grid.IV(4, 4, 4)), 1)
	if f.Alloc() != box(grid.IV(-1, -1, -1), grid.IV(5, 5, 5)) {
		t.Fatalf("alloc = %v", f.Alloc())
	}
	f.Set(grid.IV(-1, -1, -1), 3.5)
	f.Set(grid.IV(4, 4, 4), -2)
	if f.At(grid.IV(-1, -1, -1)) != 3.5 || f.At(grid.IV(4, 4, 4)) != -2 {
		t.Fatal("ghost cells not stored correctly")
	}
}

func TestIndexPanicsOutOfBounds(t *testing.T) {
	f := NewCell(box(grid.IV(0, 0, 0), grid.IV(2, 2, 2)))
	for _, c := range []grid.IVec{grid.IV(-1, 0, 0), grid.IV(0, 2, 0), grid.IV(0, 0, 5)} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%v) should panic", c)
				}
			}()
			f.Index(c)
		}()
	}
}

func TestFillAndFillFunc(t *testing.T) {
	f := NewCell(box(grid.IV(0, 0, 0), grid.IV(4, 4, 4)))
	f.Fill(f.Alloc(), 7)
	inner := box(grid.IV(1, 1, 1), grid.IV(3, 3, 3))
	f.FillFunc(inner, func(c grid.IVec) float64 { return float64(c.X + 10*c.Y + 100*c.Z) })
	if f.At(grid.IV(0, 0, 0)) != 7 {
		t.Error("outer fill lost")
	}
	if f.At(grid.IV(2, 1, 2)) != 2+10+200 {
		t.Errorf("FillFunc value = %v", f.At(grid.IV(2, 1, 2)))
	}
}

func TestCopyRegionBetweenDifferentAllocations(t *testing.T) {
	// Source patch [0,4)^3, destination patch [4,8)x[0,4)x[0,4) with ghost
	// margin; copy the source's high-x face into the dest's ghost layer.
	src := NewCell(box(grid.IV(0, 0, 0), grid.IV(4, 4, 4)))
	src.FillFunc(src.Alloc(), func(c grid.IVec) float64 {
		return float64(c.X) + 0.1*float64(c.Y) + 0.01*float64(c.Z)
	})
	dst := NewCellWithGhost(box(grid.IV(4, 0, 0), grid.IV(8, 4, 4)), 1)
	region := box(grid.IV(3, 0, 0), grid.IV(4, 4, 4))
	dst.CopyRegion(src, region)
	region.ForEach(func(c grid.IVec) {
		if dst.At(c) != src.At(c) {
			t.Fatalf("cell %v: dst %v != src %v", c, dst.At(c), src.At(c))
		}
	})
}

func TestCopyRegionPanicsOutsideAllocation(t *testing.T) {
	src := NewCell(box(grid.IV(0, 0, 0), grid.IV(2, 2, 2)))
	dst := NewCell(box(grid.IV(0, 0, 0), grid.IV(2, 2, 2)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dst.CopyRegion(src, box(grid.IV(0, 0, 0), grid.IV(3, 2, 2)))
}

func TestPackUnpackRoundTrip(t *testing.T) {
	a := NewCell(box(grid.IV(0, 0, 0), grid.IV(5, 4, 3)))
	rng := rand.New(rand.NewSource(1))
	a.FillFunc(a.Alloc(), func(grid.IVec) float64 { return rng.Float64() })
	region := box(grid.IV(1, 0, 1), grid.IV(4, 4, 2))

	buf := a.Pack(region, nil)
	if int64(len(buf)) != region.NumCells() {
		t.Fatalf("packed %d values, want %d", len(buf), region.NumCells())
	}
	b := NewCell(a.Alloc())
	rest := b.Unpack(region, buf)
	if len(rest) != 0 {
		t.Fatalf("unpack left %d values", len(rest))
	}
	if MaxAbsDiff(a, b, region) != 0 {
		t.Fatal("round trip mismatch")
	}
	// Cells outside the region stay zero.
	if b.At(grid.IV(0, 0, 0)) != 0 {
		t.Fatal("unpack wrote outside region")
	}
}

func TestPackAppends(t *testing.T) {
	f := NewCell(box(grid.IV(0, 0, 0), grid.IV(2, 1, 1)))
	f.Set(grid.IV(0, 0, 0), 1)
	f.Set(grid.IV(1, 0, 0), 2)
	buf := []float64{9}
	buf = f.Pack(f.Alloc(), buf)
	if len(buf) != 3 || buf[0] != 9 || buf[1] != 1 || buf[2] != 2 {
		t.Fatalf("buf = %v", buf)
	}
}

// Property: Pack/Unpack round-trips arbitrary regions of arbitrary fields.
func TestPropertyPackUnpack(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := grid.IV(1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6))
		lo := grid.IV(rng.Intn(5)-2, rng.Intn(5)-2, rng.Intn(5)-2)
		a := NewCell(grid.BoxFromSize(lo, size))
		a.FillFunc(a.Alloc(), func(grid.IVec) float64 { return rng.NormFloat64() })
		// Random sub-region.
		rlo := grid.IV(lo.X+rng.Intn(size.X), lo.Y+rng.Intn(size.Y), lo.Z+rng.Intn(size.Z))
		rhi := grid.IV(
			rlo.X+1+rng.Intn(lo.X+size.X-rlo.X),
			rlo.Y+1+rng.Intn(lo.Y+size.Y-rlo.Y),
			rlo.Z+1+rng.Intn(lo.Z+size.Z-rlo.Z))
		region := grid.NewBox(rlo, rhi)
		b := NewCell(a.Alloc())
		rest := b.Unpack(region, a.Pack(region, nil))
		return len(rest) == 0 && MaxAbsDiff(a, b, region) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNorms(t *testing.T) {
	f := NewCell(box(grid.IV(0, 0, 0), grid.IV(2, 1, 1)))
	f.Set(grid.IV(0, 0, 0), 3)
	f.Set(grid.IV(1, 0, 0), -4)
	if got := MaxAbs(f, f.Alloc()); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
	if MaxAbs(f, grid.NewBox(grid.IV(0, 0, 0), grid.IV(0, 1, 1))) != 0 {
		t.Error("empty-region norm should be 0")
	}
}

func TestStrides(t *testing.T) {
	f := NewCell(box(grid.IV(0, 0, 0), grid.IV(5, 7, 2)))
	ys, zs := f.Strides()
	if ys != 5 || zs != 35 {
		t.Fatalf("strides = %d,%d", ys, zs)
	}
	// Walking with strides matches Index.
	c := grid.IV(2, 3, 1)
	if f.Index(c) != 1*zs+3*ys+2 {
		t.Fatal("stride arithmetic mismatch")
	}
}
