package burgers

import (
	"math"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

func kernelFixture(t testing.TB, cells grid.IVec) (*grid.Level, *field.Cell, float64) {
	t.Helper()
	lv, err := grid.NewUnitCubeLevel(cells, grid.IV(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	in := field.NewCellWithGhost(lv.Layout.Domain, 1)
	in.FillFunc(in.Alloc(), func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return Initial(x, y, z)
	})
	return lv, in, StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
}

// TestAdvanceOptBitIdentical proves the monomorphic fused kernel produces
// exactly the reference scalar kernel's bits for both exponential
// libraries, on a grid whose x extent is not a multiple of the SIMD
// width.
func TestAdvanceOptBitIdentical(t *testing.T) {
	for _, e := range []Exp{FastExpLib, IEEEExpLib} {
		lv, in, dt := kernelFixture(t, grid.IV(13, 9, 7))
		dom := lv.Layout.Domain
		ref := field.NewCell(dom)
		opt := field.NewCell(dom)
		tLevel := 0.37 * dt
		exp := FastExp
		if e == IEEEExpLib {
			exp = math.Exp
		}
		advance(in, ref, dom, lv, tLevel, dt, exp)
		advanceOpt(in, opt, dom, lv, tLevel, dt, e)
		if d := field.MaxAbsDiff(ref, opt, dom); d != 0 {
			t.Errorf("%v: advanceOpt differs from advance by %g (must be bit-identical)", e, d)
		}
	}
}

// TestAdvanceOptSubRegion exercises the tile-shaped case the CPE path
// uses: the input allocated over a grown region, the output over the bare
// tile, computing an interior sub-box.
func TestAdvanceOptSubRegion(t *testing.T) {
	lv, in, dt := kernelFixture(t, grid.IV(16, 16, 16))
	tile := grid.NewBox(grid.IV(3, 4, 5), grid.IV(11, 9, 13))
	ref := field.NewCell(tile)
	opt := field.NewCell(tile)
	advance(in, ref, tile, lv, 0, dt, FastExp)
	advanceOpt(in, opt, tile, lv, 0, dt, FastExpLib)
	if d := field.MaxAbsDiff(ref, opt, tile); d != 0 {
		t.Errorf("sub-region advanceOpt differs from advance by %g", d)
	}
}

// TestAdvanceOptZeroAlloc verifies the kernel path is allocation-free in
// steady state: all scratch comes from the field pool.
func TestAdvanceOptZeroAlloc(t *testing.T) {
	lv, in, dt := kernelFixture(t, grid.IV(16, 16, 8))
	dom := lv.Layout.Domain
	out := field.NewCell(dom)
	advanceOpt(in, out, dom, lv, 0, dt, FastExpLib) // warm the pool
	if n := testing.AllocsPerRun(20, func() {
		advanceOpt(in, out, dom, lv, 0, dt, FastExpLib)
	}); n != 0 {
		t.Errorf("advanceOpt allocates %v times per run, want 0", n)
	}
}

// TestFastExpSliceMatches checks the batched evaluation lane-for-lane
// against FastExp, including the remainder loop and the saturation and
// NaN special cases.
func TestFastExpSliceMatches(t *testing.T) {
	src := []float64{-3.7, 0, 1, 700, 710, -744, -746, math.NaN(), 0.5, -0.25, 88}
	for n := 0; n <= len(src); n++ {
		dst := make([]float64, n)
		FastExpSlice(dst, src[:n])
		for i := 0; i < n; i++ {
			want := FastExp(src[i])
			got := dst[i]
			if math.IsNaN(want) != math.IsNaN(got) ||
				(!math.IsNaN(want) && math.Float64bits(got) != math.Float64bits(want)) {
				t.Errorf("FastExpSlice(%g)[len %d] = %g, want %g", src[i], n, got, want)
			}
		}
	}
}
