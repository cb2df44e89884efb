//go:build !purego

package burgers

// useAVX2 selects the 4-wide row kernel. It is fixed at start-up from the
// CPU's features; tests turn it off to run the Go row alone.
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

// stencilRowAVX2 is stencilRowGo over the first n cells of a row, n a
// positive multiple of four, four cells per iteration: each lane does the Go
// row's IEEE operations in the same order (no FMA), so the results are
// bit-identical. c points at the row's first cell, ys and zs are in cells.
// The caller has checked every reach against the fields' allocations.
//
//go:noescape
func stencilRowAVX2(o, c, px *float64, n, ys, zs int, py, pz float64, k *stencilConsts)

// stencilRow is stencilRowGo, with the row's multiple-of-four prefix run
// by the AVX2 kernel where the CPU has it.
func stencilRow(o, px, in []float64, base, ys, zs int, py, pz float64, k *stencilConsts) {
	n := 0
	if useAVX2 && len(o) >= 4 {
		n = len(o) &^ 3
		stencilRowAVX2(&o[0], &in[base], &px[0], n, ys, zs, py, pz, k)
	}
	if n < len(o) { // a tile's rows are usually a multiple of four long
		stencilRowGo(o[n:], px[n:], in, base+n, ys, zs, py, pz, k)
	}
}
