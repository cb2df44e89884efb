package burgers

import (
	"math"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

// Ablation A3: the fast non-IEEE exponential versus the conforming library
// (Section VI-C).

var sinkF float64

func BenchmarkFastExp(b *testing.B) {
	x := -3.7
	for i := 0; i < b.N; i++ {
		sinkF = FastExp(x)
		x += 1e-9
	}
}

func BenchmarkIEEEExp(b *testing.B) {
	x := -3.7
	for i := 0; i < b.N; i++ {
		sinkF = math.Exp(x)
		x += 1e-9
	}
}

func BenchmarkPhi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF = Phi(0.4, 0.01, FastExp)
	}
}

func BenchmarkKernelScalar(b *testing.B) {
	lv, err := grid.NewUnitCubeLevel(grid.IV(32, 32, 32), grid.IV(1, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	dom := lv.Layout.Domain
	in := field.NewCellWithGhost(dom, 1)
	in.FillFunc(in.Alloc(), func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return Initial(x, y, z)
	})
	out := field.NewCell(dom)
	dt := StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
	b.SetBytes(dom.NumCells() * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(in, out, dom, lv, 0, dt, FastExp)
	}
}

// benchKernelOpt measures the monomorphic fused kernel per exponential
// library, reporting cells/s (the paper's kernel throughput unit) and
// allocs/op (zero in steady state, by the pool design).
func benchKernelOpt(b *testing.B, e Exp) {
	lv, err := grid.NewUnitCubeLevel(grid.IV(32, 32, 32), grid.IV(1, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	dom := lv.Layout.Domain
	in := field.NewCellWithGhost(dom, 1)
	in.FillFunc(in.Alloc(), func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return Initial(x, y, z)
	})
	out := field.NewCell(dom)
	dt := StableDt(lv.Spacing[0], lv.Spacing[1], lv.Spacing[2])
	advanceOpt(in, out, dom, lv, 0, dt, e) // warm the pool
	cells := dom.NumCells()
	b.SetBytes(cells * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advanceOpt(in, out, dom, lv, 0, dt, e)
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkKernelMonoFast(b *testing.B) { benchKernelOpt(b, FastExpLib) }
func BenchmarkKernelMonoIEEE(b *testing.B) { benchKernelOpt(b, IEEEExpLib) }
