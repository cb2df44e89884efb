package burgers

import (
	"fmt"
	"math"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
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

// fastExpLdexp is FastExp as it scaled by 2^n before the exponent-bit
// fast path: math.Ldexp on every argument.
func fastExpLdexp(x float64) float64 {
	switch {
	case x != x:
		return x
	case x > 709.0:
		return math.Inf(1)
	case x < -745.0:
		return 0
	}
	n := math.Floor(x*invLn2 + 0.5)
	r := x - n*ln2Hi - n*ln2Lo
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
	return math.Ldexp(p, int(n))
}

// TestFastExpMatchesLdexp sweeps [-760, 720] — saturation at both ends,
// the subnormal tail, and dense around n = -1022 and -1021, where the
// exponent-bit path hands over to math.Ldexp — and requires FastExp's bits
// to be the Ldexp path's everywhere, NaN and the infinities included.
func TestFastExpMatchesLdexp(t *testing.T) {
	var xs []float64
	for x := -760.0; x <= 720; x += 1.0 / 1024 {
		xs = append(xs, x)
	}
	for _, n := range []float64{-1022, -1021} {
		mid := (n - 0.5) * math.Ln2 // where the rounding of x/ln2 moves to n
		for d := -4096; d <= 4096; d++ {
			xs = append(xs, mid+float64(d)*1e-6)
		}
		for x, i := mid, 0; i < 64; i++ {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	xs = append(xs, math.NaN(), math.Inf(1), math.Inf(-1), 709, -745, 0, math.Copysign(0, -1))
	hits := map[string]int{}
	for _, x := range xs {
		got, want := FastExp(x), fastExpLdexp(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("FastExp(%v) = %v (%#x), Ldexp path %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		switch n := math.Floor(x*invLn2 + 0.5); {
		case x != x || x > 709 || x < -745:
			hits["saturated or NaN"]++
		case n == -1022 || n == -1021:
			hits[fmt.Sprintf("n=%v", n)]++
		}
		if want != 0 && math.Abs(want) < 0x1p-1022 {
			hits["subnormal"]++
		}
	}
	for _, k := range []string{"saturated or NaN", "n=-1022", "n=-1021", "subnormal"} {
		if hits[k] == 0 {
			t.Errorf("the sweep reached no %s case", k)
		}
	}
}

// TestTileWindowsMatchAdvance runs the task's kernel the way the runtime
// does — windows onto a ghosted 32x32x64 patch field, 16x16x8 tiles — at
// two time levels interleaved tile by tile through the task's phi cache,
// and requires advance's bits at both levels for both libraries. A tile at
// a cached level allocates nothing, and a new level at most once.
func TestTileWindowsMatchAdvance(t *testing.T) {
	for _, e := range []Exp{FastExpLib, IEEEExpLib} {
		lv, in, dt := kernelFixture(t, grid.IV(32, 32, 64))
		dom := lv.Layout.Domain
		exp := FastExp
		if e == IEEEExpLib {
			exp = math.Exp
		}
		u := NewULabel()
		compute := NewAdvanceTask(u, e).Kernel.Compute
		levels := []float64{0.37 * dt, 1.37 * dt}
		var ref, out [2]*field.Cell
		for l, tl := range levels {
			ref[l], out[l] = field.NewCell(dom), field.NewCell(dom)
			advance(in, ref[l], dom, lv, tl, dt, exp)
		}
		tileRun := func(tile grid.Box, l int) func() {
			inW, outW := in.Window(tile.Grow(1)), out[l].Window(tile)
			tc := &taskgraph.TileContext{
				Tile: grid.Tile{Box: tile},
				In:   taskgraph.TileVars{{Label: u, Data: &inW}},
				Out:  taskgraph.TileVars{{Label: u, Data: &outW}},
				Time: levels[l], Dt: dt, Level: lv,
			}
			return func() { compute(tc) }
		}
		var last func()
		for k := 0; k < 64; k += 8 {
			for j := 0; j < 32; j += 16 {
				for i := 0; i < 32; i += 16 {
					tile := grid.NewBox(grid.IV(i, j, k), grid.IV(i+16, j+16, k+8))
					for l := range levels {
						last = tileRun(tile, l)
						last()
					}
				}
			}
		}
		for l := range levels {
			if d := field.MaxAbsDiff(ref[l], out[l], dom); d != 0 {
				t.Errorf("%v level %d: tiles differ from advance by %g (must be bit-identical)", e, l, d)
			}
		}
		if n := testing.AllocsPerRun(20, last); n != 0 {
			t.Errorf("%v: a tile at a cached time level allocates %v times, want 0", e, n)
		}
		tl := 2 * dt
		fresh := NewAdvanceTask(u, e).Kernel.Compute
		inW, outW := in.Window(dom.Grow(1)), out[0].Window(dom)
		tc := &taskgraph.TileContext{Tile: grid.Tile{Box: grid.NewBox(grid.IV(0, 0, 0), grid.IV(16, 16, 8))},
			In: taskgraph.TileVars{{Label: u, Data: &inW}}, Out: taskgraph.TileVars{{Label: u, Data: &outW}},
			Dt: dt, Level: lv}
		if n := testing.AllocsPerRun(20, func() {
			tl += dt
			tc.Time = tl
			fresh(tc)
		}); n > 1 {
			t.Errorf("%v: a new time level allocates %v times, want at most 1", e, n)
		}
	}
}
