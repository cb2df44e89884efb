package experiments

import (
	"context"
	"fmt"
	"strings"

	"sunuintah/internal/grid"
	"sunuintah/internal/runner"
)

// submitAll hands every spec to the sweep's pool up front (so the cells
// execute concurrently) and returns the job handles for in-order
// collection.
func submitAll(s *Sweep, specs []runner.Spec) []*runner.Job {
	jobs := make([]*runner.Job, len(specs))
	for i, spec := range specs {
		jobs[i] = s.Pool().Submit(spec)
	}
	return jobs
}

// AblationAsyncDMA measures the paper's future-work asynchronous
// double-buffered DMA (Section IX) on the medium problem: tile transfers
// overlap tile compute within each CPE.
func AblationAsyncDMA(s *Sweep, steps int) (string, error) {
	return ablateOption(s, steps, Options{AsyncDMA: true},
		"asynchronous memory<->LDM DMA (double buffering)", "sync DMA (s)", "async DMA (s)", 14)
}

// AblationTilePacking measures the future-work packed tile transfers
// (Section IX: "it is also possible to pack the tiles to improve data
// transfer performance").
func AblationTilePacking(s *Sweep, steps int) (string, error) {
	return ablateOption(s, steps, Options{TilePacking: true},
		"packed tile transfers", "strided (s)", "packed (s)", 15)
}

// ablateOption compares acc_simd.async on the medium problem at 1, 8 and
// 64 CGs without and with the future-work option set in on, printing each
// per-step time in a column of the given width.
func ablateOption(s *Sweep, steps int, on Options, title, offCol, onCol string, width int) (string, error) {
	prob, _ := ProblemByName("32x64x512")
	v, _ := VariantByName("acc_simd.async")
	cgCounts := []int{1, 8, 64}
	on.Steps = steps
	var specs []runner.Spec
	for _, cgs := range cgCounts {
		specs = append(specs,
			SpecFor(prob, cgs, v, Options{Steps: steps}, 0),
			SpecFor(prob, cgs, v, on, 0))
	}
	jobs := submitAll(s, specs)
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION: %s, %s, acc_simd.async\n", title, prob.Name)
	fmt.Fprintf(&b, "  %-6s %*s %*s %9s\n", "CGs", width, offCol, width, onCol, "speedup")
	for i, cgs := range cgCounts {
		base, err := jobs[2*i].Wait(context.Background())
		if err != nil {
			return "", err
		}
		opt, err := jobs[2*i+1].Wait(context.Background())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-6d %*.4f %*.4f %8.2fx\n",
			cgs, width, base.PerStepSeconds(), width, opt.PerStepSeconds(),
			base.PerStepSeconds()/opt.PerStepSeconds())
	}
	return b.String(), nil
}

// AblationCPEGroups measures the future-work CPE grouping: splitting the
// 64 CPEs into groups that each compute a different patch, enabling task
// and data parallelism on one CG.
func AblationCPEGroups(s *Sweep, steps int) (string, error) {
	prob, _ := ProblemByName("32x32x512")
	v, _ := VariantByName("acc_simd.async")
	groupCounts := []int{1, 2, 4}
	var specs []runner.Spec
	for _, groups := range groupCounts {
		specs = append(specs, SpecFor(prob, 8, v, Options{Steps: steps, CPEGroups: groups}, 0))
	}
	jobs := submitAll(s, specs)
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION: CPE grouping (patches in flight per CG), %s, acc_simd.async, 8 CGs\n", prob.Name)
	fmt.Fprintf(&b, "  %-8s %14s %9s\n", "groups", "per step (s)", "vs 1")
	var base float64
	for i, groups := range groupCounts {
		res, err := jobs[i].Wait(context.Background())
		if err != nil {
			return "", err
		}
		t := res.PerStepSeconds()
		if groups == 1 {
			base = t
		}
		fmt.Fprintf(&b, "  %-8d %14.4f %8.2fx\n", groups, t, base/t)
	}
	return b.String(), nil
}

// AblationTileSize sweeps the LDM tile shape (Section VI-A: the paper
// chooses 16x16x8 as close to optimal within the 64 KB LDM).
func AblationTileSize(s *Sweep, steps int) (string, error) {
	prob, _ := ProblemByName("32x64x512")
	v, _ := VariantByName("acc.async")
	shapes := []grid.IVec{
		grid.IV(8, 8, 8),
		grid.IV(16, 16, 4),
		grid.IV(16, 16, 8), // the paper's choice
		grid.IV(32, 16, 8),
		grid.IV(32, 32, 8), // exceeds the 64 KB LDM
	}
	var specs []runner.Spec
	for _, ts := range shapes {
		specs = append(specs, SpecFor(prob, 8, v, Options{Steps: steps, TileSize: ts}, 0))
	}
	jobs := submitAll(s, specs)
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION: tile size (64 KiB LDM), %s, acc.async, 8 CGs\n", prob.Name)
	fmt.Fprintf(&b, "  %-10s %14s %14s %s\n", "tile", "working set", "per step (s)", "note")
	for i, ts := range shapes {
		ws := grid.WorkingSetBytes(grid.Tile{Box: grid.BoxFromSize(grid.IV(0, 0, 0), ts)}, 1)
		res, err := jobs[i].Wait(context.Background())
		if err != nil {
			fmt.Fprintf(&b, "  %-10s %11.1f KiB %14s rejected: %v\n", ts.String(), float64(ws)/1024, "-", err)
			continue
		}
		note := ""
		if ts == grid.IV(16, 16, 8) {
			note = "<- paper's choice"
		}
		fmt.Fprintf(&b, "  %-10s %11.1f KiB %14.4f %s\n", ts.String(), float64(ws)/1024, res.PerStepSeconds(), note)
	}
	return b.String(), nil
}

// ShapeSummary checks the qualitative claims of the paper against the
// model and reports each: the five shape properties listed in DESIGN.md.
func ShapeSummary(s *Sweep) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "SHAPE SUMMARY: paper's qualitative claims vs this reproduction\n\n")

	// 1. Strong-scaling efficiency span and its growth with problem size.
	tv, err := TableV(s)
	if err != nil {
		return "", err
	}
	lo, hi := 1e9, -1e9
	for _, r := range tv {
		for _, e := range []float64{r.AccSync, r.AccAsync, r.SimdSync, r.SimdAsync} {
			if e < lo {
				lo = e
			}
			if e > hi {
				hi = e
			}
		}
	}
	fmt.Fprintf(&b, "1. strong-scaling efficiency span: %.1f%% .. %.1f%% (paper: 31.7%%..97.7%% across all variants)\n", lo, hi)
	small := tv[0].SimdAsync
	large := tv[len(tv)-1].SimdAsync
	fmt.Fprintf(&b, "   efficiency grows with size (simd.async): smallest %.1f%%, largest %.1f%% -> %v\n",
		small, large, large > small)

	// 2. Async improvement averages and best cases.
	t6, err := AsyncImprovement(s, false)
	if err != nil {
		return "", err
	}
	t7, err := AsyncImprovement(s, true)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "2. async improvement, non-vectorized: avg %.1f%%, best %.1f%% (paper: avg 13.5%%, best 39.3%%)\n",
		t6.Average(), t6.Best())
	fmt.Fprintf(&b, "   async improvement, vectorized:     avg %.1f%%, best %.1f%% (paper: best 22.8%%)\n",
		t7.Average(), t7.Best())

	// 3. Offload and SIMD boosts.
	for _, idx := range []int{0, 3, 6} {
		fig, err := Boosts(s, Problems[idx])
		if err != nil {
			return "", err
		}
		loA, hiA := 1e9, -1e9
		loS, hiS := 1e9, -1e9
		for _, pt := range fig.Points {
			if pt.AccAsync < loA {
				loA = pt.AccAsync
			}
			if pt.AccAsync > hiA {
				hiA = pt.AccAsync
			}
			extra := pt.SimdAsy / pt.AccAsync
			if extra < loS {
				loS = extra
			}
			if extra > hiS {
				hiS = extra
			}
		}
		fmt.Fprintf(&b, "3. %-12s offload boost %.1f-%.1fx, simd extra %.1f-%.1fx (paper: 2.7-6.0x, 1.3-2.2x)\n",
			Problems[idx].Name, loA, hiA, loS, hiS)
	}

	// 4. Floating-point efficiency.
	f9, err := Figure9And10(s)
	if err != nil {
		return "", err
	}
	best := 0.0
	for _, fs := range f9 {
		for _, pt := range fs.Points {
			if pt.Efficiency > best {
				best = pt.Efficiency
			}
		}
	}
	fmt.Fprintf(&b, "4. best FP efficiency: %.2f%% of peak (paper: 1.17%%)\n", best*100)
	for _, fs := range f9 {
		if fs.Problem == "128x128x512" && len(fs.Points) > 0 {
			last := fs.Points[len(fs.Points)-1]
			fmt.Fprintf(&b, "   aggregate at %d CGs, largest problem: %.1f Gflop/s (paper: 974.5 at 128 CGs)\n",
				last.CGs, last.Gflops)
		}
	}
	return b.String(), nil
}
