package experiments

import (
	"strings"
	"testing"

	"sunuintah/internal/runner"
)

// TestChaos is the "make chaos" determinism gate: the chaos matrix must
// render byte-identically regardless of pool concurrency, and at the
// default fault rate at least 95% of runs must recover.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	const steps = 4
	render := func(workers int) string {
		s := NewSweepWithPool(Options{}, NewPool(workers, runner.NewMemoryCache(0), nil))
		defer s.Pool().Close()
		out, err := Chaos(s, steps)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("chaos artifact depends on worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Chaos matrix") {
		t.Fatalf("unexpected artifact shape:\n%s", serial)
	}

	s := NewSweepWithPool(Options{}, NewPool(0, runner.NewMemoryCache(0), nil))
	defer s.Pool().Close()
	rows, err := ChaosRows(s, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(chaosScales) {
		t.Fatalf("want %d scales, got %d", len(chaosScales), len(rows))
	}
	for _, r := range rows {
		if r.Scale == 0 {
			if r.Recovered != r.Runs || r.Crashes != 0 {
				t.Fatalf("baseline row not fault-free: %+v", r)
			}
			continue
		}
		if r.Scale == 1 {
			if float64(r.Recovered) < 0.95*float64(r.Runs) {
				t.Fatalf("default fault rate recovered %d/%d (< 95%%)", r.Recovered, r.Runs)
			}
			if r.Crashes == 0 || r.Restarts == 0 {
				t.Fatalf("default fault rate never exercised checkpoint/restart: %+v", r)
			}
			if r.Overhead <= 0 {
				t.Fatalf("faulty runs should cost more than the baseline: %+v", r)
			}
		}
	}
}
