package field

import (
	"testing"

	"sunuintah/internal/grid"
)

// Edge cases of the pack/unpack/copy trio: empty regions, single-row
// regions, and ghost-only slabs (regions entirely inside the ghost
// margin, which is what halo exchange actually moves).

func ghostedFixture() (*Cell, grid.Box) { return ghostedFixtureSized(grid.IV(4, 4, 4)) }

func TestPackUnpackEmptyBox(t *testing.T) {
	f, _ := ghostedFixture()
	empty := grid.NewBox(grid.IV(2, 2, 2), grid.IV(2, 3, 3))
	buf := f.Pack(empty, nil)
	if len(buf) != 0 {
		t.Fatalf("packing an empty box produced %d values", len(buf))
	}
	if rest := f.Unpack(empty, buf); len(rest) != 0 {
		t.Fatalf("unpacking an empty box left %d values", len(rest))
	}
}

func TestCopyRegionEmptyBoxIsNoop(t *testing.T) {
	f, _ := ghostedFixture()
	g, _ := ghostedFixture()
	empty := grid.NewBox(grid.IV(1, 1, 1), grid.IV(1, 1, 1))
	// Must not panic even though an empty box trivially "fits" nowhere.
	f.CopyRegion(g, empty)
}

func TestPackUnpackSingleRow(t *testing.T) {
	f, _ := ghostedFixture()
	row := grid.NewBox(grid.IV(0, 2, 2), grid.IV(4, 3, 3))
	buf := f.Pack(row, nil)
	if len(buf) != 4 {
		t.Fatalf("single-row pack: %d values, want 4", len(buf))
	}
	g, _ := ghostedFixture()
	g.Fill(g.Alloc(), 0)
	rest := g.Unpack(row, buf)
	if len(rest) != 0 {
		t.Fatalf("single-row unpack left %d values", len(rest))
	}
	row.ForEach(func(c grid.IVec) {
		if g.At(c) != f.At(c) {
			t.Fatalf("row mismatch at %v: %g != %g", c, g.At(c), f.At(c))
		}
	})
}

func TestPackUnpackGhostOnlySlab(t *testing.T) {
	f, interior := ghostedFixture()
	// The low-z ghost plane: one cell thick, entirely outside the interior.
	slab := grid.NewBox(
		grid.IV(interior.Lo.X, interior.Lo.Y, interior.Lo.Z-1),
		grid.IV(interior.Hi.X, interior.Hi.Y, interior.Lo.Z))
	buf := f.Pack(slab, nil)
	if want := slab.NumCells(); int64(len(buf)) != want {
		t.Fatalf("ghost slab pack: %d values, want %d", len(buf), want)
	}
	g, _ := ghostedFixture()
	g.Fill(g.Alloc(), -1)
	g.Unpack(slab, buf)
	slab.ForEach(func(c grid.IVec) {
		if g.At(c) != f.At(c) {
			t.Fatalf("slab mismatch at %v", c)
		}
	})
	// Interior untouched by the ghost-only unpack.
	if v := g.At(interior.Lo); v != -1 {
		t.Fatalf("interior corrupted by ghost unpack: %g", v)
	}
}

func TestCopyRegionGhostOnlySlab(t *testing.T) {
	f, interior := ghostedFixture()
	g, _ := ghostedFixture()
	g.Fill(g.Alloc(), 0)
	slab := grid.NewBox(
		grid.IV(interior.Lo.X-1, interior.Lo.Y, interior.Lo.Z),
		grid.IV(interior.Lo.X, interior.Hi.Y, interior.Hi.Z))
	g.CopyRegion(f, slab)
	slab.ForEach(func(c grid.IVec) {
		if g.At(c) != f.At(c) {
			t.Fatalf("ghost copy mismatch at %v", c)
		}
	})
	if v := g.At(interior.Lo); v != 0 {
		t.Fatalf("copy leaked outside region: %g", v)
	}
}

// TestPackPooledZeroAlloc proves the halo pack/unpack path is
// allocation-free once the payload buffer comes from the pool.
func TestPackPooledZeroAlloc(t *testing.T) {
	f, interior := ghostedFixture()
	g, _ := ghostedFixture()
	slab := grid.NewBox(
		grid.IV(interior.Lo.X, interior.Lo.Y, interior.Hi.Z-1),
		interior.Hi)
	n := int(slab.NumCells())
	PutSlice(GetBuf(n)) // warm the class
	if allocs := testing.AllocsPerRun(20, func() {
		buf := GetBuf(n)
		buf = f.Pack(slab, buf)
		g.Unpack(slab, buf)
		PutSlice(buf)
	}); allocs != 0 {
		t.Errorf("pooled pack/unpack allocates %v per run, want 0", allocs)
	}
}
