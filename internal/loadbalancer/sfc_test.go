package loadbalancer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sunuintah/internal/grid"
)

func paperLayout(t *testing.T) *grid.Layout {
	t.Helper()
	l, err := grid.NewLayout(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(128, 128, 1024)), grid.IV(8, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAssignSFCBalancedAndComplete(t *testing.T) {
	l := paperLayout(t)
	for _, ranks := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		assign, err := AssignSFC(l, ranks)
		if err != nil {
			t.Fatal(err)
		}
		counts := Counts(assign, ranks)
		for r, c := range counts {
			if c != 128/ranks {
				t.Fatalf("ranks=%d: rank %d got %d patches", ranks, r, c)
			}
		}
	}
}

func TestAssignSFCImprovesLocality(t *testing.T) {
	// For a cubic layout at 8 ranks, SFC segments should produce at most
	// as much cross-rank ghost surface as ID-order blocks (which slice
	// into thin slabs).
	l, err := grid.NewLayout(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(32, 32, 32)), grid.IV(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	crossSurface := func(assign []int) int64 {
		var total int64
		for _, p := range l.Patches() {
			for _, gr := range l.GhostRegions(p, 1) {
				if gr.Src != nil && assign[gr.Src.ID] != assign[p.ID] {
					total += gr.Region.NumCells()
				}
			}
		}
		return total
	}
	block, _ := Assign(Block, l.NumPatches(), 8)
	sfc, err := AssignSFC(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	if crossSurface(sfc) > crossSurface(block) {
		t.Fatalf("SFC surface %d worse than block %d", crossSurface(sfc), crossSurface(block))
	}
}

func TestMortonKeyOrdering(t *testing.T) {
	// Morton order of a 2x2x2 cube visits one octant fully before the
	// next in the canonical x-fastest interleave.
	if mortonKey(grid.IV(0, 0, 0)) >= mortonKey(grid.IV(1, 0, 0)) {
		t.Fatal("x bit not least significant")
	}
	if mortonKey(grid.IV(1, 0, 0)) >= mortonKey(grid.IV(0, 1, 0)) {
		t.Fatal("y above x")
	}
	if mortonKey(grid.IV(1, 1, 0)) >= mortonKey(grid.IV(0, 0, 1)) {
		t.Fatal("z most significant")
	}
}

func TestAssignWeightedRespectsWeights(t *testing.T) {
	// One heavy patch: the greedy scan should give the heavy patch its
	// own rank region and pack light ones together.
	weights := []float64{10, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	assign, err := AssignWeighted(weights, 2)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 {
		t.Fatal("first patch must be on rank 0")
	}
	// The heavy patch alone is over half the total, so rank 0 should end
	// quickly.
	if assign[1] != 1 {
		t.Fatalf("assign = %v: light patches should move to rank 1", assign)
	}
	// Imbalance is max/mean of the per-rank weight sums.
	imbalance := func(assign []int) float64 {
		sums := make([]float64, 2)
		for p, r := range assign {
			sums[r] += weights[p]
		}
		return max(sums[0], sums[1]) / ((sums[0] + sums[1]) / 2)
	}
	imb := imbalance(assign)
	uniform, _ := Assign(Block, len(weights), 2)
	if imb > imbalance(uniform) {
		t.Fatalf("weighted imbalance %v worse than uniform blocks", imb)
	}
}

func TestAssignWeightedErrors(t *testing.T) {
	if _, err := AssignWeighted(nil, 1); err == nil {
		t.Error("empty weights should fail")
	}
	if _, err := AssignWeighted([]float64{1, -1}, 1); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := AssignWeighted([]float64{1}, 2); err == nil {
		t.Error("more ranks than patches should fail")
	}
}

// Property: weighted assignment is contiguous, covers all ranks, and every
// rank gets at least one patch.
func TestPropertyWeightedAssignment(t *testing.T) {
	f := func(seed int64, n, r uint8) bool {
		nPatches := 1 + int(n)%64
		nRanks := 1 + int(r)%16
		if nRanks > nPatches {
			nRanks = nPatches
		}
		rng := rand.New(rand.NewSource(seed))
		weights := make([]float64, nPatches)
		for i := range weights {
			weights[i] = rng.Float64() * 10
		}
		assign, err := AssignWeighted(weights, nRanks)
		if err != nil {
			return false
		}
		counts := Counts(assign, nRanks)
		for _, c := range counts {
			if c == 0 {
				return false
			}
		}
		for i := 1; i < len(assign); i++ {
			if assign[i] < assign[i-1] || assign[i] > assign[i-1]+1 {
				return false
			}
		}
		return assign[len(assign)-1] == nRanks-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
