package perf

// Roofline analysis of a kernel against the SW26010 core group, following
// the paper's Section III-A: "Given the 16 byte memory access required per
// cell ... the arithmetic intensity of the kernel is approximately 19.4
// Flop/Byte, and is still memory-bounded compared to that of the SW26010
// processor."

// Roofline is the classic two-segment performance bound of one core group.
type Roofline struct {
	PeakFlops    float64 // compute roof (CG peak)
	MemBandwidth float64 // memory roof slope
}

// CGRoofline returns the core group's roofline.
func (p Params) CGRoofline() Roofline {
	return Roofline{PeakFlops: p.CGPeakFlops(), MemBandwidth: p.MemBandwidth}
}

// RidgeIntensity is the arithmetic intensity where the memory roof meets
// the compute roof; kernels below it are memory-bound at peak.
func (r Roofline) RidgeIntensity() float64 { return r.PeakFlops / r.MemBandwidth }
