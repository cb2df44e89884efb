package loadbalancer

import (
	"fmt"
	"sort"

	"sunuintah/internal/grid"
)

// SFC assigns contiguous segments of a Morton space-filling curve.
const SFC Strategy = 2

// AssignWithLayout dispatches to the strategy's assignment function,
// covering the layout-aware SFC strategy as well as the ID-based ones.
func AssignWithLayout(strategy Strategy, layout *grid.Layout, nRanks int) ([]int, error) {
	if strategy == SFC {
		return AssignSFC(layout, nRanks)
	}
	return Assign(strategy, layout.NumPatches(), nRanks)
}

// AssignSFC orders the layout's patches along a Morton (Z-order)
// space-filling curve over their layout positions and assigns contiguous
// curve segments to ranks. Compared to ID-order blocks this keeps each
// rank's patches spatially compact in all three dimensions, reducing ghost
// traffic — the locality-aware policy Uintah's measurement-based load
// balancer approximates.
func AssignSFC(layout *grid.Layout, nRanks int) ([]int, error) {
	n := layout.NumPatches()
	if nRanks <= 0 || nRanks > n {
		return nil, fmt.Errorf("loadbalancer: %d ranks for %d patches", nRanks, n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa := layout.Patch(order[a]).Pos
		pb := layout.Patch(order[b]).Pos
		return mortonKey(pa) < mortonKey(pb)
	})
	out := make([]int, n)
	for idx, patchID := range order {
		out[patchID] = rankOfBlock(idx, n, nRanks)
	}
	return out, nil
}

// mortonKey interleaves the bits of a patch position (Z-order curve).
func mortonKey(p grid.IVec) uint64 {
	return interleave(uint64(p.X)) | interleave(uint64(p.Y))<<1 | interleave(uint64(p.Z))<<2
}

// interleave spreads the low 21 bits of v so consecutive bits are three
// apart.
func interleave(v uint64) uint64 {
	v &= (1 << 21) - 1
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}
