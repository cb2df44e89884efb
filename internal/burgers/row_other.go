//go:build !amd64 || purego

package burgers

// useAVX2 is false: this build has no vector tile kernel.
var useAVX2 = false

// stencilVec runs no column: this build has no vector tile kernel, so the
// Go rows do every cell.
func stencilVec(out, in []float64, obase, base int, phix, phiy, phiz []float64, ys, zs, oys, ozs int, k *stencilConsts) int {
	return 0
}
