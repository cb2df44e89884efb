//go:build !amd64 || purego

package burgers

// useAVX2 is false: this build has no vector row kernel.
var useAVX2 = false

// stencilRow is stencilRowGo.
func stencilRow(o, px, in []float64, base, ys, zs int, py, pz float64, k *stencilConsts) {
	stencilRowGo(o, px, in, base, ys, zs, py, pz, k)
}
