package burgers

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

func TestFastExpAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	maxRel := 0.0
	for i := 0; i < 100000; i++ {
		x := rng.Float64()*1400 - 700
		got := FastExp(x)
		want := math.Exp(x)
		rel := math.Abs(got-want) / want
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 3e-13 {
		t.Fatalf("max relative error = %g, want <= 3e-13", maxRel)
	}
}

func TestFastExpSpecialCases(t *testing.T) {
	if FastExp(0) != 1 {
		t.Errorf("FastExp(0) = %v", FastExp(0))
	}
	if !math.IsInf(FastExp(800), 1) {
		t.Error("overflow should saturate to +Inf")
	}
	if FastExp(-800) != 0 {
		t.Error("underflow should saturate to 0")
	}
	if !math.IsNaN(FastExp(math.NaN())) {
		t.Error("NaN should propagate")
	}
	if got := FastExp(1); math.Abs(got-math.E) > 1e-12 {
		t.Errorf("FastExp(1) = %v", got)
	}
}

// Property: FastExp is positive, finite and monotone on the normal range.
func TestPropertyFastExpMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		if a != a || b != b {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		elo, ehi := FastExp(lo), FastExp(hi)
		return elo > 0 && elo <= ehi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPhiMatchesReference(t *testing.T) {
	for _, x := range []float64{0, 0.1, 0.375, 0.5, 0.9, 1.0} {
		for _, tt := range []float64{0, 0.001, 0.01, 0.1} {
			got := Phi(x, tt, FastExp)
			want := phiRef(x, tt)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("Phi(%v,%v) = %v, want %v", x, tt, got, want)
			}
		}
	}
}

func TestPhiBounded(t *testing.T) {
	// phi is a convex combination of 0.1, 0.5 and 1.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		x := rng.Float64()*2 - 0.5
		tt := rng.Float64() * 0.5
		v := Phi(x, tt, FastExp)
		if v < 0.1-1e-12 || v > 1+1e-12 {
			t.Fatalf("Phi(%v,%v) = %v outside [0.1, 1]", x, tt, v)
		}
	}
}

func TestExactIsProductOfPhis(t *testing.T) {
	x, y, z, tt := 0.3, 0.6, 0.9, 0.02
	want := phiRef(x, tt) * phiRef(y, tt) * phiRef(z, tt)
	if got := Exact(x, y, z, tt); got != want {
		t.Errorf("Exact = %v, want %v", got, want)
	}
	if Initial(x, y, z) != Exact(x, y, z, 0) {
		t.Error("Initial must be Exact at t=0")
	}
}

// The label declares its boundary condition separable, and physics declares
// the initial condition so: both declarations must be Exact, bit for bit.
func TestExactProfileFactorsExact(t *testing.T) {
	u := NewULabel()
	if u.Profile == nil {
		t.Fatal("the solution label does not declare a separable boundary condition")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		x, y, z, tt := rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1, rng.Float64()*0.1
		want := Exact(x, y, z, tt)
		if got := ExactProfile(0, x, tt) * ExactProfile(1, y, tt) * ExactProfile(2, z, tt); got != want {
			t.Fatalf("profile product %v != Exact %v at (%v,%v,%v,%v)", got, want, x, y, z, tt)
		}
		if got := u.BC(x, y, z, tt); got != want {
			t.Fatalf("label BC %v != Exact %v", got, want)
		}
		if got := InitialProfile(0, x) * InitialProfile(1, y) * InitialProfile(2, z); got != Initial(x, y, z) {
			t.Fatalf("initial profile product %v != Initial %v", got, Initial(x, y, z))
		}
	}
}

func TestFlopAccountingStructure(t *testing.T) {
	total := KernelFlopsPerCell(FastExpLib)
	expPart := ExpFlopsPerCell(FastExpLib)
	if expPart >= total {
		t.Fatalf("exp part %v must be below total %v", expPart, total)
	}
	// The paper: ~311 flops/cell, ~215 (69%) from exponentials. Our leaner
	// software exp counts fewer ops, but the structure must match: a
	// couple hundred flops, exponential-dominated.
	if total < 200 || total > 330 {
		t.Errorf("KernelFlopsPerCell = %v, want a few hundred", total)
	}
	share := expPart / total
	if share < 0.55 || share > 0.75 {
		t.Errorf("exp share = %.2f, want ~2/3 (paper: 215/311)", share)
	}
	if ExpFlopsPerCell(FastExpLib) != 6*FastExpFlops {
		t.Error("six exponentials per cell (Section VI-C)")
	}
	if KernelWeight(IEEEExpLib) <= KernelWeight(FastExpLib) {
		t.Error("IEEE exp must cost more than the fast library")
	}
}

func TestStableDtScalesWithResolution(t *testing.T) {
	coarse := StableDt(1.0/32, 1.0/32, 1.0/32)
	fine := StableDt(1.0/64, 1.0/64, 1.0/64)
	if fine >= coarse {
		t.Fatalf("finer grid must need smaller dt: %v vs %v", fine, coarse)
	}
	if coarse <= 0 {
		t.Fatal("dt must be positive")
	}
}

func newLevel(t *testing.T, cells grid.IVec) *grid.Level {
	t.Helper()
	lv, err := grid.NewUnitCubeLevel(cells, grid.IV(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return lv
}

// applyKernel runs one step of the scalar reference kernel over the whole
// grid with exact ghost values.
func applyKernel(lv *grid.Level, t0, dt float64) *field.Cell {
	dom := lv.Layout.Domain
	old := field.NewCellWithGhost(dom, 1)
	old.FillFunc(old.Alloc(), func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return Exact(x, y, z, t0)
	})
	out := field.NewCell(dom)
	advance(old, out, dom, lv, t0, dt, FastExp)
	return out
}

func TestOneStepTruncationShrinksWithResolution(t *testing.T) {
	// The solution's wave fronts have width ~nu/0.5 = 0.02, so coarse
	// grids under-resolve them; the one-step error must drop markedly as
	// the grid refines.
	oneStepErr := func(n int) float64 {
		lv := newLevel(t, grid.IV(n, n, n))
		dt := StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
		got := applyKernel(lv, 0, dt)
		maxErr := 0.0
		lv.Layout.Domain.ForEach(func(c grid.IVec) {
			x, y, z := lv.CellCenter(c)
			if e := math.Abs(got.At(c) - Exact(x, y, z, dt)); e > maxErr {
				maxErr = e
			}
		})
		return maxErr
	}
	e16, e64 := oneStepErr(16), oneStepErr(64)
	if e64 >= e16/4 {
		t.Fatalf("one-step error did not shrink with resolution: e16=%g e64=%g", e16, e64)
	}
	if e64 > 2e-3 {
		t.Fatalf("one-step error at 64^3 = %g, too large", e64)
	}
}

func TestSerialSolveConvergesFirstOrder(t *testing.T) {
	// Halving dx (and correspondingly dt) should roughly halve the error
	// at a fixed final time: the scheme is first order in space (backward
	// differences) and time.
	if testing.Short() {
		t.Skip("convergence study")
	}
	finalT := 0.02
	errAt := func(n int) float64 {
		lv := newLevel(t, grid.IV(n, n, n))
		dt := StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
		steps := int(math.Ceil(finalT / dt))
		dt = finalT / float64(steps)
		u := SerialSolve(lv, steps, dt, FastExpLib)
		maxErr := 0.0
		lv.Layout.Domain.ForEach(func(c grid.IVec) {
			x, y, z := lv.CellCenter(c)
			if e := math.Abs(u.At(c) - Exact(x, y, z, finalT)); e > maxErr {
				maxErr = e
			}
		})
		return maxErr
	}
	e16 := errAt(16)
	e32 := errAt(32)
	ratio := e16 / e32
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("error ratio 16->32 = %.2f (e16=%g, e32=%g), want ~2 (first order)", ratio, e16, e32)
	}
}

func TestSerialSolveStability(t *testing.T) {
	// The solution stays within the bounds of the convex-combination
	// solution for many steps at the stable dt.
	lv := newLevel(t, grid.IV(12, 12, 12))
	dt := StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
	u := SerialSolve(lv, 50, dt, FastExpLib)
	lv.Layout.Domain.ForEach(func(c grid.IVec) {
		v := u.At(c)
		if v < 0.1*0.1*0.1-1e-6 || v > 1+1e-6 {
			t.Fatalf("cell %v = %v escaped [0.001, 1]", c, v)
		}
	})
}

func TestIEEEAndFastExpAgreeOnSolution(t *testing.T) {
	lv := newLevel(t, grid.IV(8, 8, 8))
	dt := StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
	a := SerialSolve(lv, 5, dt, FastExpLib)
	b := SerialSolve(lv, 5, dt, IEEEExpLib)
	if d := field.MaxAbsDiff(a, b, lv.Layout.Domain); d > 1e-11 {
		t.Fatalf("fast vs IEEE exp solution difference = %g", d)
	}
}
