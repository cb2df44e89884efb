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

// BenchmarkStencilTile measures the stencil alone, in ns a cell, on the
// runtime's tile shape: "cache" repeats one 16x16x8 tile window of a
// ghosted 32x32x64 patch (26 KB in, 16 KB out, kept in cache); "sweep"
// walks such tiles over a 128x128x64 field (8 MB each way), larger than
// L2, as a rank's patches are. φ is sliced from profiles evaluated
// beforehand.
func BenchmarkStencilTile(b *testing.B) {
	tile := grid.IV(16, 16, 8)
	for _, c := range []struct {
		name  string
		cells grid.IVec
		n     int // tiles run, the first n in x, then y, then z order
	}{
		{"cache", grid.IV(32, 32, 64), 1},
		{"sweep", grid.IV(128, 128, 64), 8 * 8 * 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			lv, in, dt := kernelFixture(b, c.cells)
			dom := lv.Layout.Domain
			out := field.NewCell(dom)
			sz := dom.Size()
			prof := make([]float64, sz.X+sz.Y+sz.Z)
			phix, phiy, phiz := fillProfiles(prof, make([]float64, 3*max(sz.X, sz.Y, sz.Z)), dom, lv, 0, FastExpLib)
			var boxes []grid.Box
			for z := 0; z < sz.Z && len(boxes) < c.n; z += tile.Z {
				for y := 0; y < sz.Y && len(boxes) < c.n; y += tile.Y {
					for x := 0; x < sz.X && len(boxes) < c.n; x += tile.X {
						lo := grid.IV(x, y, z)
						boxes = append(boxes, grid.NewBox(lo, lo.Add(tile)))
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range boxes {
					inW, outW := in.Window(t.Grow(1)), out.Window(t)
					stencil(&inW, &outW, t, lv, dt, phix[t.Lo.X:t.Hi.X], phiy[t.Lo.Y:t.Hi.Y], phiz[t.Lo.Z:t.Hi.Z])
				}
			}
			cells := float64(len(boxes)) * float64(tile.X*tile.Y*tile.Z) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
		})
	}
}
