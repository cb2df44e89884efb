package burgers

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

// stencilKernels runs f once per stencil path this build has: the Go rows
// alone, then the AVX2 tile kernel where the CPU has it.
func stencilKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	avx2 := useAVX2
	defer func() { useAVX2 = avx2 }()
	useAVX2 = false
	t.Run("go", f)
	if avx2 {
		useAVX2 = true
		t.Run("avx2", f)
	}
}

// rowValue draws an input value: mostly finite values of a few magnitudes,
// sometimes ±0, a subnormal, ±Inf or NaN.
func rowValue(r *rand.Rand) float64 {
	switch r.Intn(16) {
	case 0:
		return math.Copysign(0, float64(r.Intn(2))-0.5)
	case 1:
		return math.Float64frombits(r.Uint64()&(1<<52-1)) * float64(1-2*r.Intn(2))
	case 2:
		return math.Inf(1 - 2*r.Intn(2))
	case 3:
		return math.NaN()
	case 4:
		return r.NormFloat64() * math.Ldexp(1, r.Intn(200)-100)
	default:
		return r.NormFloat64()
	}
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestStencilTileMatchesGo holds the dispatched stencil (the AVX2 tile
// kernel and the Go rows on the tail columns) to a plain stencilRowGo row
// loop bit for bit, NaN as NaN: every width from 0 to 37, so every tail
// length and tiles narrower than four run, by 1-4 rows and 1-4 planes, at
// every start offset mod 4, into an output whose strides differ from the
// input's, on random finite values, ±0, subnormals, ±Inf and NaN. Every
// output cell outside the region must keep its sentinel, so a wrong row or
// plane step writes where it is caught.
func TestStencilTileMatchesGo(t *testing.T) { stencilKernels(t, testStencilTileMatchesGo) }

func testStencilTileMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const sentinel = -7.25e111 // finite, so a cell left unwritten fails even where NaN is due
	for nx := 0; nx <= 37; nx++ {
		for ny := 1; ny <= 4; ny++ {
			for nz := 1; nz <= 4; nz++ {
				for off := 0; off < 4; off++ {
					// The input's x padding puts the region's first cell at
					// storage offset 1+off mod 4 (its y stride is a multiple
					// of 4), and phix starts off cells into its array. The
					// output is wider and taller than the input, so both its
					// strides differ, and it has a border of sentinels.
					region := grid.NewBox(grid.IV(0, 0, 0), grid.IV(nx, ny, nz))
					pad := grid.IV(1+off, 1+r.Intn(3), 1+r.Intn(3))
					hiX := 1 + (4-(nx+2+off)%4)%4 + 4*r.Intn(2)
					in := field.NewCell(grid.NewBox(region.Lo.Sub(pad), region.Hi.Add(grid.IV(hiX, 1, 1))))
					out := field.NewCell(grid.NewBox(region.Lo.Sub(pad.Add(grid.IV(1, 1, 0))),
						region.Hi.Add(grid.IV(hiX+r.Intn(3), 3, 1))))
					if ys, _ := in.Strides(); ys%4 != 0 || in.Index(region.Lo)%4 != (1+off)%4 {
						t.Fatalf("input strides %d: the region starts at offset %d", ys, in.Index(region.Lo))
					}
					for i := range in.Data() {
						in.Data()[i] = rowValue(r)
					}
					phix, phiy, phiz := make([]float64, off+nx)[off:], make([]float64, ny), make([]float64, nz)
					for _, p := range [][]float64{phix, phiy, phiz} {
						for i := range p {
							p[i] = rowValue(r)
						}
					}
					lv := &grid.Level{Spacing: [3]float64{1.0 / 40, 1.0 / 24, 1.0 / 56}}
					dt := 1e-4
					if r.Intn(2) == 1 {
						lv.Spacing[1], dt = rowValue(r), rowValue(r)
					}
					out.Fill(out.Alloc(), sentinel)
					stencil(in, out, region, lv, dt, phix, phiy, phiz)

					want := make([]float64, nx*ny*nz) // x fastest, then y, then z
					k := newStencilConsts(lv, dt)
					ys, zs := in.Strides()
					for z := 0; z < nz; z++ {
						for y := 0; y < ny; y++ {
							stencilRowGo(want[(z*ny+y)*nx:][:nx], phix, in.Data(), in.Index(grid.IV(0, y, z)), ys, zs, phiy[y], phiz[z], &k)
						}
					}
					out.Alloc().ForEach(func(c grid.IVec) {
						got := out.At(c)
						if !region.Contains(c) {
							if got != sentinel {
								t.Fatalf("%dx%dx%d off %d: stencil wrote %v at %v, outside the region", nx, ny, nz, off, got, c)
							}
							return
						}
						if w := want[(c.Z*ny+c.Y)*nx+c.X]; !sameFloat(got, w) {
							t.Fatalf("%dx%dx%d off %d: cell %v = %v (%#x), Go rows %v (%#x)",
								nx, ny, nz, off, c, got, math.Float64bits(got), w, math.Float64bits(w))
						}
					})
				}
			}
		}
	}
}

// TestStencilRejectsBeforeWriting feeds stencil each reach it must refuse —
// an input short of region.Grow(1), an output short of region, a profile
// of the wrong length — and requires a panic with its message before any
// cell of the output is written.
func TestStencilRejectsBeforeWriting(t *testing.T) {
	lv, in, dt := kernelFixture(t, grid.IV(16, 16, 16))
	region := grid.NewBox(grid.IV(4, 4, 4), grid.IV(12, 10, 9))
	sz := region.Size()
	phi := func(n int) []float64 { return make([]float64, n) }
	cases := []struct {
		name             string
		in, out          *field.Cell
		phix, phiy, phiz []float64
		msg              string
	}{
		{"input short of the halo", field.NewCell(region), field.NewCell(region),
			phi(sz.X), phi(sz.Y), phi(sz.Z), "needs input over"},
		{"input short on one side", field.NewCell(grid.NewBox(grid.IV(3, 3, 3), grid.IV(13, 11, 9))), field.NewCell(region),
			phi(sz.X), phi(sz.Y), phi(sz.Z), "needs input over"},
		{"output short of the region", in, field.NewCell(grid.NewBox(region.Lo, region.Hi.Sub(grid.IV(1, 0, 0)))),
			phi(sz.X), phi(sz.Y), phi(sz.Z), "needs input over"},
		{"phix long", in, field.NewCell(region), phi(sz.X + 1), phi(sz.Y), phi(sz.Z), "needs phi profiles"},
		{"phiy short", in, field.NewCell(region), phi(sz.X), phi(sz.Y - 1), phi(sz.Z), "needs phi profiles"},
		{"phiz empty", in, field.NewCell(region), phi(sz.X), phi(sz.Y), nil, "needs phi profiles"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const sentinel = 12345.5
			c.out.Fill(c.out.Alloc(), sentinel)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "burgers: region") || !strings.Contains(msg, c.msg) {
						t.Errorf("panic %q, want one naming %q", msg, c.msg)
					}
				}()
				stencil(c.in, c.out, region, lv, dt, c.phix, c.phiy, c.phiz)
			}()
			for _, v := range c.out.Data() {
				if v != sentinel {
					t.Fatalf("stencil wrote %v before refusing", v)
				}
			}
		})
	}
}
