package experiments

import (
	"strings"
	"testing"

	"sunuintah/internal/runner"
	"sunuintah/internal/workload"
)

// TestWorkloadArtifact is the "make workload" determinism gate: the
// scenario sweep plus record-and-replay leg must render byte-identically
// regardless of pool concurrency.
func TestWorkloadArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("workload artifact is not a -short test")
	}
	const steps = 2
	render := func(workers int) string {
		s := NewSweepWithPool(Options{}, NewPool(workers, runner.NewMemoryCache(0), nil))
		defer s.Pool().Close()
		out, err := Workload(s, steps)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("workload artifact depends on worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", serial, parallel)
	}
	for _, want := range []string{
		"scenario mixed-default", "steady", "diurnal", "regrid-storm",
		"recorded", "trace replay", "replay-0",
	} {
		if !strings.Contains(serial, want) {
			t.Fatalf("artifact missing %q:\n%s", want, serial)
		}
	}
	// The storm phase must actually mix all three models.
	storm := serial[strings.Index(serial, "regrid-storm"):]
	storm = storm[:strings.Index(storm, "\n")]
	for _, model := range []string{"burgers", "advection", "heat3d"} {
		if !strings.Contains(storm, model+":") {
			t.Fatalf("storm row missing model %s: %q", model, storm)
		}
	}
}

// TestRunScenarioAggregates pins the per-phase aggregation on a tiny
// hand-built scenario.
func TestRunScenarioAggregates(t *testing.T) {
	sc := &workload.Scenario{
		Name: "tiny",
		Seed: 3,
		Base: workload.Template{
			Cells: "8x8x16", Layout: "1x1x2", CGs: 2,
			Variant: "acc.async", Steps: 2,
		},
		Phases: []workload.Phase{
			{Name: "b", Duration: 2, Arrival: workload.Arrival{Pattern: workload.PatternBurst, Burst: 2, Every: 1}},
			{Name: "h", Duration: 1, Arrival: workload.Arrival{Pattern: workload.PatternConstant, Rate: 2},
				Jobs: &workload.Template{Physics: "heat3d"}},
		},
	}
	s := NewSweepWithPool(Options{}, NewPool(2, runner.NewMemoryCache(0), nil))
	defer s.Pool().Close()
	rep, err := RunScenario(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 || rep.Makespan <= 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Phase != "b" || rep.Rows[1].Phase != "h" {
		t.Fatalf("rows out of phase order: %+v", rep.Rows)
	}
	if rep.Rows[0].Jobs != 4 { // 2 waves x burst 2
		t.Fatalf("burst phase jobs = %d, want 4", rep.Rows[0].Jobs)
	}
	if rep.Rows[0].Models["burgers"] != 4 || len(rep.Rows[0].Models) != 1 {
		t.Fatalf("burst phase models = %v", rep.Rows[0].Models)
	}
	if rep.Rows[1].Jobs > 0 && rep.Rows[1].Models["heat3d"] != rep.Rows[1].Jobs {
		t.Fatalf("heat phase models = %v for %d jobs", rep.Rows[1].Models, rep.Rows[1].Jobs)
	}
	if rep.Rows[0].MeanWall <= 0 {
		t.Fatalf("mean wall missing: %+v", rep.Rows[0])
	}
}

// TestRunScenarioRejectsBadSpecs ensures validation runs before any job
// is submitted.
func TestRunScenarioRejectsBadSpecs(t *testing.T) {
	sc := &workload.Scenario{
		Name: "bad",
		Base: workload.Template{Cells: "8x8x8", CGs: 2, Variant: "no-such-variant", Steps: 1},
		Phases: []workload.Phase{
			{Name: "p", Duration: 1, Arrival: workload.Arrival{Pattern: workload.PatternBurst, Burst: 1, Every: 1}},
		},
	}
	s := NewSweepWithPool(Options{}, NewPool(1, runner.NewMemoryCache(0), nil))
	defer s.Pool().Close()
	if _, err := RunScenario(s, sc); err == nil {
		t.Fatal("scenario with unknown variant accepted")
	}
}
