package loadbalancer

import (
	"testing"
	"testing/quick"
)

// perRank returns how many patches each rank received.
func perRank(assign []int, nRanks int) []int {
	c := make([]int, nRanks)
	for _, r := range assign {
		c[r]++
	}
	return c
}

func TestBlockAssignmentEvenSplit(t *testing.T) {
	assign, err := Assign(Block, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := perRank(assign, 8)
	for r, c := range counts {
		if c != 16 {
			t.Fatalf("rank %d has %d patches, want 16", r, c)
		}
	}
	// Contiguity: rank never decreases with patch ID.
	for p := 1; p < len(assign); p++ {
		if assign[p] < assign[p-1] {
			t.Fatalf("block assignment not contiguous at patch %d", p)
		}
	}
}

func TestBlockAssignmentAllPaperCGCounts(t *testing.T) {
	for _, cgs := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		assign, err := Assign(Block, 128, cgs)
		if err != nil {
			t.Fatalf("cgs=%d: %v", cgs, err)
		}
		counts := perRank(assign, cgs)
		want := 128 / cgs
		for r, c := range counts {
			if c != want {
				t.Fatalf("cgs=%d rank %d: %d patches, want %d", cgs, r, c, want)
			}
		}
	}
}

func TestRoundRobin(t *testing.T) {
	assign, err := Assign(RoundRobin, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for p, r := range want {
		if assign[p] != r {
			t.Fatalf("assign = %v", assign)
		}
	}
}

func TestAssignErrors(t *testing.T) {
	if _, err := Assign(Block, 0, 1); err == nil {
		t.Error("zero patches should fail")
	}
	if _, err := Assign(Block, 4, 0); err == nil {
		t.Error("zero ranks should fail")
	}
	if _, err := Assign(Block, 4, 8); err == nil {
		t.Error("more ranks than patches should fail")
	}
	if _, err := Assign(Strategy(99), 4, 2); err == nil {
		t.Error("unknown strategy should fail")
	}
}

// Property: block assignment is balanced within one patch and covers every
// rank, for arbitrary sizes.
func TestPropertyBlockBalanced(t *testing.T) {
	f := func(np, nr uint8) bool {
		nPatches := 1 + int(np)%200
		nRanks := 1 + int(nr)%50
		if nRanks > nPatches {
			nRanks = nPatches
		}
		assign, err := Assign(Block, nPatches, nRanks)
		if err != nil {
			return false
		}
		counts := perRank(assign, nRanks)
		lo, hi := nPatches, 0
		for _, c := range counts {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return lo >= 1 && hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if Block.String() != "block" || RoundRobin.String() != "round-robin" {
		t.Error("strategy names wrong")
	}
}
