package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestProblemsMatchTableIII(t *testing.T) {
	if len(Problems) != 7 {
		t.Fatalf("problems = %d, want 7", len(Problems))
	}
	// Spot-check the table's rows.
	first, last := Problems[0], Problems[6]
	if first.Name != "16x16x512" || first.GridSize.String() != "128x128x1024" {
		t.Errorf("first problem = %+v", first)
	}
	if first.MemBytes != 256<<20 {
		t.Errorf("first problem memory = %d, want 256 MB", first.MemBytes)
	}
	if last.Name != "128x128x512" || last.GridSize.String() != "1024x1024x1024" {
		t.Errorf("last problem = %+v", last)
	}
	if last.MemBytes != 16<<30 {
		t.Errorf("last problem memory = %d, want 16 GB", last.MemBytes)
	}
	if last.MinCGs != 8 {
		t.Errorf("last problem min CGs = %d, want 8", last.MinCGs)
	}
	// Sizes double round-robin along x and y.
	for i := 1; i < len(Problems); i++ {
		if Problems[i].GridSize.Volume() != 2*Problems[i-1].GridSize.Volume() {
			t.Errorf("problem %d does not double problem %d", i, i-1)
		}
	}
}

func TestVariantsMatchTableIV(t *testing.T) {
	if len(Variants) != 5 {
		t.Fatalf("variants = %d, want 5", len(Variants))
	}
	names := []string{"host.sync", "acc.sync", "acc_simd.sync", "acc.async", "acc_simd.async"}
	for i, want := range names {
		if Variants[i].Name != want {
			t.Errorf("variant %d = %q, want %q", i, Variants[i].Name, want)
		}
	}
	if _, err := VariantByName("nope"); err == nil {
		t.Error("unknown variant should error")
	}
	if _, err := ProblemByName("nope"); err == nil {
		t.Error("unknown problem should error")
	}
}

func TestMetricHelpers(t *testing.T) {
	if got := Improvement(1.2, 1.0); math.Abs(got-20) > 1e-12 {
		t.Errorf("Improvement = %v", got)
	}
	// Perfect scaling: doubling CGs halves time.
	if got := StrongScalingEfficiency(1.0, 1, 1.0/128, 128); math.Abs(got-100) > 1e-9 {
		t.Errorf("efficiency = %v", got)
	}
	// Half-perfect.
	if got := StrongScalingEfficiency(1.0, 1, 1.0/64, 128); math.Abs(got-50) > 1e-9 {
		t.Errorf("efficiency = %v", got)
	}
}

// TestSweepMemoises: the pool's cache is the sweep's memo, so a second Run
// of a cell executes nothing.
func TestSweepMemoises(t *testing.T) {
	s := NewSweep(Options{Steps: 1})
	defer s.Close()
	prob := Problems[0]
	v, _ := VariantByName("acc.async")
	first, err := s.Run(prob, 1, v)
	if err != nil {
		t.Fatal(err)
	}
	executed := s.Pool().Metrics().Executed
	second, err := s.Run(prob, 1, v)
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Pool().Metrics(); m.Executed != executed || m.CacheHits != 1 {
		t.Fatalf("second Run: executed %d -> %d, %d cache hits; want a memoised single run", executed, m.Executed, m.CacheHits)
	}
	if second.Result != first.Result {
		t.Fatal("second Run should return the cached result")
	}
}

func TestSweepRecordsInfeasibleCases(t *testing.T) {
	s := NewSweep(Options{Steps: 1})
	prob, _ := ProblemByName("64x64x512") // 4 GB: crashes on one CG
	v, _ := VariantByName("acc.async")
	r, err := s.Run(prob, 1, v)
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible {
		t.Fatal("4 GB problem on one CG should be infeasible (Table III)")
	}
	r2, err := s.Run(prob, 2, v)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Feasible {
		t.Fatal("4 GB problem on two CGs should fit")
	}
}

func TestTableIStructure(t *testing.T) {
	s := NewSweep(Options{Steps: 1})
	rows, err := TableI(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// FLOPs per cell in the paper's neighbourhood (299-311 with their
		// 36-flop software exp; ours counts a leaner exp).
		if r.FlopsPerCell < 200 || r.FlopsPerCell > 330 {
			t.Errorf("row %d flops/cell = %v", i, r.FlopsPerCell)
		}
		// Exponential share ~2/3 (paper: 215/311).
		if r.ExpFraction < 0.55 || r.ExpFraction > 0.75 {
			t.Errorf("row %d exp fraction = %v", i, r.ExpFraction)
		}
		// Rising with problem size (ghost dilution shrinks).
		if i > 0 && r.FlopsPerCell < rows[i-1].FlopsPerCell {
			t.Errorf("flops/cell not increasing at row %d", i)
		}
		// Ghosted cell counts match the paper exactly.
	}
	if rows[0].TotalCells != 17339400 {
		t.Errorf("16x16x512 ghosted cells = %d, want 17339400 (paper)", rows[0].TotalCells)
	}
	if rows[6].TotalCells != 1080045576 {
		t.Errorf("128x128x512 ghosted cells = %d, want 1080045576 (paper)", rows[6].TotalCells)
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "16x16x512") {
		t.Error("formatting broken")
	}
}

func TestTableIIIVerifiesStarredRows(t *testing.T) {
	s := NewSweep(Options{Steps: 1})
	rows, err := TableIII(s)
	if err != nil {
		t.Fatal(err)
	}
	starred := 0
	for _, r := range rows {
		if r.Starred {
			starred++
			if !r.OneCGOOM {
				t.Errorf("%s starred but no OOM verified below the minimum", r.Problem)
			}
		}
	}
	if starred != 3 {
		t.Fatalf("starred rows = %d, want 3 (Table III)", starred)
	}
}

func TestFormattersProduceOutput(t *testing.T) {
	if !strings.Contains(FormatTableIV(), "acc_simd.async") {
		t.Error("table IV formatting broken")
	}
}

// TestShapesLockIn is the calibration guard: the qualitative claims of the
// paper must keep holding as the code evolves. It runs a reduced sweep.
func TestShapesLockIn(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	s := NewSweep(Options{Steps: 3})

	// Async beats sync on the medium problem at small and mid CG counts.
	med, _ := ProblemByName("32x64x512")
	for _, cgs := range []int{1, 16} {
		sy, _ := VariantByName("acc.sync")
		as, _ := VariantByName("acc.async")
		rs, err := s.Run(med, cgs, sy)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := s.Run(med, cgs, as)
		if err != nil {
			t.Fatal(err)
		}
		imp := Improvement(rs.PerStepSeconds(), ra.PerStepSeconds())
		if imp < 3 || imp > 45 {
			t.Errorf("async improvement at %d CGs = %.1f%%, want in (3,45)", cgs, imp)
		}
	}

	// At 128 CGs (one patch per rank) the improvement collapses toward
	// zero or slightly negative, the paper's observed anomaly region.
	{
		sy, _ := VariantByName("acc.sync")
		as, _ := VariantByName("acc.async")
		rs, _ := s.Run(med, 128, sy)
		ra, _ := s.Run(med, 128, as)
		imp := Improvement(rs.PerStepSeconds(), ra.PerStepSeconds())
		if imp > 3 || imp < -8 {
			t.Errorf("async improvement at 128 CGs = %.1f%%, want ~0", imp)
		}
	}

	// Offload boost in the paper's 2.7-6.0x band; SIMD adds 1.2-2.2x.
	small, _ := ProblemByName("16x16x512")
	for _, prob := range []ProblemSpec{small, med} {
		fig, err := Boosts(s, prob)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range fig.Points {
			if pt.AccAsync < 2.5 || pt.AccAsync > 7.0 {
				t.Errorf("%s offload boost at %d CGs = %.2f", prob.Name, pt.CGs, pt.AccAsync)
			}
			extra := pt.SimdAsy / pt.AccAsync
			if extra < 1.1 || extra > 2.3 {
				t.Errorf("%s simd extra boost at %d CGs = %.2f", prob.Name, pt.CGs, extra)
			}
		}
	}

	// FP efficiency ~1% of peak, growing with problem size.
	large, _ := ProblemByName("128x128x512")
	v, _ := VariantByName("acc_simd.async")
	rLarge, err := s.Run(large, 8, v)
	if err != nil {
		t.Fatal(err)
	}
	if eff := rLarge.Result.Efficiency; eff < 0.006 || eff > 0.016 {
		t.Errorf("large-problem efficiency = %.4f, want ~0.01 (paper: 1.0-1.17%%)", eff)
	}
	rSmall, err := s.Run(small, 8, v)
	if err != nil {
		t.Fatal(err)
	}
	if rSmall.Result.Efficiency >= rLarge.Result.Efficiency {
		t.Error("efficiency should grow with problem size (Figure 10)")
	}

	// Strong scaling: sync scales better than async on the largest
	// problem (paper: 97.7% vs 83.1%), and small problems scale worst.
	sy, _ := VariantByName("acc_simd.sync")
	as, _ := VariantByName("acc_simd.async")
	effOf := func(prob ProblemSpec, v Variant) float64 {
		series, err := s.ScalingSeries(prob, v)
		if err != nil {
			t.Fatal(err)
		}
		return StrongScalingEfficiency(
			series[prob.MinCGs].PerStepSeconds(), prob.MinCGs,
			series[128].PerStepSeconds(), 128)
	}
	largeSync := effOf(large, sy)
	largeAsync := effOf(large, as)
	smallAsync := effOf(small, as)
	if largeSync < largeAsync {
		t.Errorf("sync (%.1f%%) should scale at least as well as async (%.1f%%) on the largest problem",
			largeSync, largeAsync)
	}
	if smallAsync >= largeAsync {
		t.Errorf("small problem (%.1f%%) should scale worse than large (%.1f%%)", smallAsync, largeAsync)
	}
	if smallAsync < 15 || smallAsync > 60 {
		t.Errorf("small-problem simd.async efficiency = %.1f%%, paper band ~31.7%%", smallAsync)
	}
	if largeSync < 85 {
		t.Errorf("large-problem simd.sync efficiency = %.1f%%, paper ~96.1%%", largeSync)
	}
}

func TestNoiseAndBestOfRepeats(t *testing.T) {
	prob := Problems[0]
	v, _ := VariantByName("acc.async")
	// Each call is a fresh sweep — its own pool and cache — so equal
	// results are recomputed, not replayed.
	perStep := func(opt Options) float64 {
		t.Helper()
		opt.Steps = 1
		s := NewSweep(opt)
		defer s.Close()
		r, err := s.Run(prob, 1, v)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			t.Fatal("case infeasible")
		}
		return r.PerStepSeconds()
	}
	// Without noise, runs are bit-identical.
	a, b := perStep(Options{}), perStep(Options{})
	if a != b {
		t.Fatalf("noise-free runs differ: %v vs %v", a, b)
	}
	// Noise slows runs down; best-of-5 recovers part of it and is
	// deterministic given the seeds.
	noisy1 := perStep(Options{Noise: 0.3})
	if noisy1 <= a {
		t.Fatalf("noisy run (%v) should be slower than clean (%v)", noisy1, a)
	}
	best5 := perStep(Options{Noise: 0.3, Repeats: 5})
	if best5 > noisy1 {
		t.Fatalf("best-of-5 (%v) worse than single noisy run (%v)", best5, noisy1)
	}
	if again := perStep(Options{Noise: 0.3, Repeats: 5}); best5 != again {
		t.Fatal("best-of-repeats should be deterministic")
	}
}

func TestExportJSONRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := NewSweep(Options{Steps: 1})
	e, err := BuildExport(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for _, key := range []string{"tableI", "tableV", "tableVI", "figure5", "figure9And10"} {
		if back[key] == nil {
			t.Errorf("export missing %q", key)
		}
	}
	if len(e.TableI) != 7 || len(e.TableV) != 7 {
		t.Error("export tables incomplete")
	}
}
