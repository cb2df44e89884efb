package burgers

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

// rowKernels runs f once per row kernel this build has: the Go row alone,
// then the AVX2 prefix where the CPU has it.
func rowKernels(t *testing.T, f func(t *testing.T)) {
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

// TestStencilRowMatchesGo holds the dispatched row (the AVX2 prefix and the
// Go tail) to the Go row bit for bit, NaN as NaN: every row length from 0
// to 37 at every start offset mod 4, so unaligned loads and every tail
// length run, on random finite values, ±0, subnormals, ±Inf and NaN.
func TestStencilRowMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this build or CPU has no AVX2 row kernel")
	}
	r := rand.New(rand.NewSource(1))
	lv, _, dt := kernelFixture(t, grid.IV(40, 8, 8))
	rdx := 1 / lv.Spacing[0]
	for n := 0; n <= 37; n++ {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 8; trial++ {
				ys := n + 2 + r.Intn(5)
				zs := 3*ys + r.Intn(5)
				in := make([]float64, off+2*zs+n+1)
				for i := range in {
					in[i] = rowValue(r)
				}
				px := make([]float64, off+n)
				for i := range px {
					px[i] = rowValue(r)
				}
				k := stencilConsts{rdx: rdx, rdy: 2 * rdx, rdz: 0.5 * rdx,
					rdx2: rdx * rdx, rdy2: 4 * rdx * rdx, rdz2: 0.25 * rdx * rdx, nu: Nu, dt: dt}
				if trial%2 == 1 {
					k.rdy, k.dt = rowValue(r), rowValue(r)
				}
				py, pz := rowValue(r), rowValue(r)
				base := off + zs
				want := make([]float64, off+n)
				got := make([]float64, off+n)
				stencilRowGo(want[off:], px[off:], in, base, ys, zs, py, pz, &k)
				stencilRow(got[off:], px[off:], in, base, ys, zs, py, pz, &k)
				for i := off; i < off+n; i++ {
					if !sameFloat(got[i], want[i]) {
						t.Fatalf("n=%d off=%d trial %d: cell %d = %v (%#x), Go row %v (%#x)",
							n, off, trial, i-off, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
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
