// Package loadbalancer assigns mesh patches to MPI ranks. The paper's
// experiments use equally sized patches with the patch count an exact
// multiple of the rank count, so a contiguous block assignment in patch-ID
// order (z-major) is both balanced and locality-preserving; round-robin is
// provided as a comparison strategy.
package loadbalancer

import "fmt"

// Strategy names a patch-assignment policy.
type Strategy int

// Available strategies.
const (
	// Block assigns contiguous runs of patch IDs to each rank.
	Block Strategy = iota
	// RoundRobin deals patches out cyclically.
	RoundRobin
)

func (s Strategy) String() string {
	switch s {
	case Block:
		return "block"
	case RoundRobin:
		return "round-robin"
	case SFC:
		return "sfc"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Assign distributes nPatches patches over nRanks ranks, returning the
// owning rank of each patch ID. Every rank receives either
// floor(nPatches/nRanks) or ceil(nPatches/nRanks) patches.
func Assign(strategy Strategy, nPatches, nRanks int) ([]int, error) {
	if nPatches <= 0 || nRanks <= 0 {
		return nil, fmt.Errorf("loadbalancer: need positive patches (%d) and ranks (%d)", nPatches, nRanks)
	}
	if nRanks > nPatches {
		return nil, fmt.Errorf("loadbalancer: %d ranks exceed %d patches (idle ranks are not supported)", nRanks, nPatches)
	}
	out := make([]int, nPatches)
	switch strategy {
	case Block:
		// Rank r owns patches [r*nPatches/nRanks, (r+1)*nPatches/nRanks).
		for p := range out {
			out[p] = rankOfBlock(p, nPatches, nRanks)
		}
	case RoundRobin:
		for p := range out {
			out[p] = p % nRanks
		}
	default:
		return nil, fmt.Errorf("loadbalancer: unknown strategy %v", strategy)
	}
	return out, nil
}

// rankOfBlock inverts the block partition boundaries lo(r) = r*nPatches/nRanks.
func rankOfBlock(p, nPatches, nRanks int) int {
	// Candidate from proportional position, corrected to the true block.
	r := p * nRanks / nPatches
	for r+1 < nRanks && p >= (r+1)*nPatches/nRanks {
		r++
	}
	for r > 0 && p < r*nPatches/nRanks {
		r--
	}
	return r
}
