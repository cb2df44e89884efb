package perf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsMatchTableII(t *testing.T) {
	p := DefaultParams()
	if p.NumCPEs != 64 {
		t.Errorf("NumCPEs = %d", p.NumCPEs)
	}
	if p.LDMBytes != 64*1024 {
		t.Errorf("LDMBytes = %d", p.LDMBytes)
	}
	if p.MemBytesPerCG != 8<<30 {
		t.Errorf("MemBytesPerCG = %d", p.MemBytesPerCG)
	}
	// Node performance 3.06 Tflop/s across four CGs.
	node := 4 * p.CGPeakFlops()
	if math.Abs(node-3.0624e12) > 1e9 {
		t.Errorf("node peak = %v", node)
	}
	if p.LinkBandwidth != 16e9 {
		t.Errorf("LinkBandwidth = %v", p.LinkBandwidth)
	}
	if p.LinkLatency != 1e-6 {
		t.Errorf("LinkLatency = %v", p.LinkLatency)
	}
}

func TestCGPeak(t *testing.T) {
	p := DefaultParams()
	if got := p.CGPeakFlops(); math.Abs(got-765.6e9) > 1e6 {
		t.Errorf("CG peak = %v, want 765.6e9", got)
	}
	// MPE contributes ~3% of the aggregate, as Section IV-A states.
	frac := p.MPEPeakFlops / p.CGPeakFlops()
	if frac < 0.025 || frac > 0.035 {
		t.Errorf("MPE fraction = %v, want ~3%%", frac)
	}
}

func TestMessageTimeComponents(t *testing.T) {
	p := DefaultParams()
	if got := p.MessageTime(0); got != p.LinkLatency {
		t.Errorf("zero-byte message = %v", got)
	}
	// 16 MB at 16 GB/s = 1 ms plus latency.
	got := p.MessageTime(16 << 20)
	want := p.LinkLatency + float64(16<<20)/16e9
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MessageTime = %v, want %v", got, want)
	}
}

func TestDMATimeSharesBandwidth(t *testing.T) {
	p := DefaultParams()
	one := p.DMATime(42304, 1)
	all := p.DMATime(42304, 64)
	if all <= one {
		t.Errorf("contended DMA (%v) should be slower than solo (%v)", all, one)
	}
	// With 64 active CPEs the transfer term scales by 64.
	soloXfer := one - p.DMALatency
	allXfer := all - p.DMALatency
	if math.Abs(allXfer/soloXfer-64) > 1e-9 {
		t.Errorf("transfer scaling = %v, want 64", allXfer/soloXfer)
	}
	if p.DMATime(100, 0) != p.DMATime(100, 1) {
		t.Error("activeCPEs < 1 should clamp to 1")
	}
}

func TestSIMDHalvesCompute(t *testing.T) {
	p := DefaultParams()
	scalar := p.CPEComputeTime(2048, false, 1)
	simd := p.CPEComputeTime(2048, true, 1)
	if math.Abs(scalar/simd-p.SIMDSpeedup) > 1e-9 {
		t.Errorf("simd speedup = %v, want %v", scalar/simd, p.SIMDSpeedup)
	}
}

func TestMPEMuchFasterPerCoreThanCPE(t *testing.T) {
	// The calibrated model encodes that the scalar exp-heavy kernel runs
	// far worse per core on a cacheless CPE than on the MPE, while the 64
	// CPEs together still beat one MPE by the paper's 2.7-6x after DMA.
	p := DefaultParams()
	mpe := p.MPEKernelTime(1000, 1)
	cpeCluster := p.CPEComputeTime(1000, false, 1) / float64(p.NumCPEs)
	ratio := mpe / cpeCluster
	if ratio < 2.7 {
		t.Errorf("ideal cluster speedup = %v, want > 2.7 (paper's minimum offload boost)", ratio)
	}
	if ratio > 20 {
		t.Errorf("ideal cluster speedup = %v, implausibly high", ratio)
	}
}

func TestSustainedThroughputNearPaper(t *testing.T) {
	// Back-of-envelope check that the calibrated kernel cost lands near
	// the paper's sustained throughput: 128x128x512 patch, 4096 tiles of
	// 16x16x8, vectorised, sync DMA per tile, 64 CPEs.
	p := DefaultParams()
	const cellsPerTile = 16 * 16 * 8
	const tilesPerCPE = 4096 / 64
	tileDMA := p.DMATime(18*18*10*8, 64) + p.DMATime(cellsPerTile*8, 64)
	tileCompute := p.CPEComputeTime(cellsPerTile, true, 1)
	perCPE := tilesPerCPE * (tileDMA + tileCompute)
	cells := int64(128 * 128 * 512)
	gflops := 311 * float64(cells) / perCPE / 1e9
	// Paper: ~7.6 Gflop/s per CG sustained (974.5 / 128). Allow a loose
	// band; the full scheduler adds overheads on top.
	if gflops < 5 || gflops > 13 {
		t.Errorf("modelled kernel throughput = %.2f Gflop/s per CG, want ~7-10", gflops)
	}
	eff := gflops * 1e9 / p.CGPeakFlops()
	if eff < 0.006 || eff > 0.02 {
		t.Errorf("efficiency = %.4f, want ~0.01 (paper: 1.0-1.17%%)", eff)
	}
}

func TestPropertyTimesNonNegativeAndMonotone(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint32) bool {
		x, y := int64(a%(1<<28)), int64(b%(1<<28))
		lo, hi := x, y
		if lo > hi {
			lo, hi = hi, lo
		}
		return p.MessageTime(lo) <= p.MessageTime(hi) &&
			p.LocalCopyTime(lo) <= p.LocalCopyTime(hi) &&
			p.TouchTime(lo) <= p.TouchTime(hi) &&
			p.MessageTime(lo) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRooflineReproducesSectionIIIA(t *testing.T) {
	ridge := DefaultParams().CGRoofline().RidgeIntensity()
	// Ridge = 765.6e9 / 34.1e9 ~ 22.5 flop/B.
	if ridge < 20 || ridge > 25 {
		t.Fatalf("ridge intensity = %v", ridge)
	}
	// The paper's arithmetic: 311 flops over 16 bytes per cell is ~19.4
	// flop/B, left of the CG's ridge point, hence memory-bound at peak;
	// our leaner counted kernel (239 flops) is memory-bound too.
	for _, flops := range []float64{311, 239} {
		if ai := flops / 16; ai >= ridge {
			t.Fatalf("%v flops/cell: intensity %v is not memory-bound (ridge %v)", flops, ai, ridge)
		}
	}
}
