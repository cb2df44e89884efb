//go:build !purego

package burgers

// useAVX2 selects the 4-wide tile kernel. It is fixed at start-up from the
// CPU's features; tests turn it off to run the Go rows alone.
var useAVX2 = hasAVX2()

// hasAVX2 reports AVX2 (CPUID leaf 7, EBX bit 5) with the OS saving YMM
// state (OSXSAVE, and XCR0's SSE and AVX bits set).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32

// stencilTileAVX2 is stencilRowGo over the first n cells of each of a
// tile's ny*nz rows, n a positive multiple of four and ny, nz positive,
// four cells per iteration: each lane does the Go row's IEEE operations in
// the same order (no FMA), so the results are bit-identical. c and o point
// at the tile's first input and output cells, px at its n x profile values
// and py, pz at its ny and nz; ys, zs and oys, ozs are the two fields'
// strides in cells. The caller has checked every reach against the fields'
// allocations.
//
//go:noescape
func stencilTileAVX2(o, c, px, py, pz *float64, n, ny, nz, ys, zs, oys, ozs int, k *stencilConsts)

// stencilVec runs the AVX2 tile kernel over the first len(phix) &^ 3
// columns of every row of stencil's non-empty, checked region, whose first
// cells are in[base] and out[obase], and returns that column count: 0
// where the CPU has no AVX2 or the region is narrower than four cells.
func stencilVec(out, in []float64, obase, base int, phix, phiy, phiz []float64, ys, zs, oys, ozs int, k *stencilConsts) int {
	n := len(phix) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	stencilTileAVX2(&out[obase], &in[base], &phix[0], &phiy[0], &phiz[0], n, len(phiy), len(phiz), ys, zs, oys, ozs, k)
	return n
}
