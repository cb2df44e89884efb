package loadbalancer

import (
	"testing"

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
		counts := perRank(assign, ranks)
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
