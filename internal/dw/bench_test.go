package dw

import (
	"testing"

	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// The steady-state warehouse churn of a timestep: allocate the new
// warehouse's variable, swap (freeing the old). A freed variable keeps its
// field, so the cycle is bookkeeping only: a map update and the core
// group's accounting, with no storage drawn, zeroed or returned.

func churnFixture(tb testing.TB) (*Pair, *taskgraph.Label, *grid.Patch) {
	tb.Helper()
	lv, err := grid.NewUnitCubeLevel(grid.IV(16, 16, 16), grid.IV(1, 1, 1))
	if err != nil {
		tb.Fatal(err)
	}
	pair := NewPair(Functional, testCG())
	u := taskgraph.NewLabel("u", nil)
	p := lv.Layout.Patch(0)
	if err := pair.Old.Allocate(u, p, 1); err != nil {
		tb.Fatal(err)
	}
	return pair, u, p
}

func BenchmarkWarehouseChurn(b *testing.B) {
	pair, u, p := churnFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pair.New.Allocate(u, p, 1); err != nil {
			b.Fatal(err)
		}
		pair.Swap()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "swaps/s")
}

// TestWarehouseChurnSteadyStateAllocs locks the allocate/swap cycle at
// zero allocations: after the first step each variable's entry and field
// already exist, so reallocating one only marks it live again.
func TestWarehouseChurnSteadyStateAllocs(t *testing.T) {
	pair, u, p := churnFixture(t)
	cycle := func() {
		if err := pair.New.Allocate(u, p, 1); err != nil {
			t.Fatal(err)
		}
		pair.Swap()
	}
	cycle() // the new warehouse's first allocation makes its field
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("warehouse churn allocates %v objects per step, want 0", n)
	}
}
