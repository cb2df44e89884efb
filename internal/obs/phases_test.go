package obs

import (
	"strings"
	"testing"
)

func TestFoldPhases(t *testing.T) {
	s := NewSampler(2)
	feed(s)
	rep := s.Report(1e-4)

	stats := rep.FoldPhases([]PhaseWindow{
		{Name: "early", Start: 0, End: 5e-5},
		// The final sample's midpoint lies past the run end, so the last
		// window over-covers to absorb it.
		{Name: "late", Start: 5e-5, End: 2e-4},
	})
	if len(stats) != 2 {
		t.Fatalf("want 2 phase stats, got %d", len(stats))
	}
	early, late := stats[0], stats[1]
	if early.Samples == 0 || late.Samples == 0 {
		t.Fatalf("empty windows: %+v", stats)
	}
	// Queue sits at 8 until the 5e-5 decrement, then at 7: the early
	// window averages strictly higher than the late one.
	if early.QueueMean <= late.QueueMean {
		t.Fatalf("queue fold wrong: early %g <= late %g", early.QueueMean, late.QueueMean)
	}
	// feed injects rank 1's fault at 3e-5 and recovery at 4e-5 — both in
	// the early window, none in the late one.
	if early.Faults != 1 || early.Recoveries != 1 {
		t.Fatalf("early fault deltas wrong: %+v", early)
	}
	if late.Faults != 0 || late.Recoveries != 0 {
		t.Fatalf("late fault deltas wrong: %+v", late)
	}
	if early.MemPeak != 1<<20 {
		t.Fatalf("mem peak wrong: %g", early.MemPeak)
	}

	// Disjoint windows partition the samples: counts add up to the grid.
	if got := early.Samples + late.Samples; got != rep.Samples {
		t.Fatalf("windows cover %d samples of %d", got, rep.Samples)
	}

	var b strings.Builder
	WritePhaseTable(&b, stats)
	out := b.String()
	for _, want := range []string{"phase", "early", "late", "q.mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("phase table missing %q:\n%s", want, out)
		}
	}
}

func TestFoldPhasesNilAndEmpty(t *testing.T) {
	var rep *Report
	if rep.FoldPhases([]PhaseWindow{{Name: "x", End: 1}}) != nil {
		t.Fatal("nil report must fold to nil")
	}
	s := NewSampler(1)
	s.Rank(0).QueueDepth(0, 1)
	stats := s.Report(1e-4).FoldPhases([]PhaseWindow{{Name: "beyond", Start: 1, End: 2}})
	if len(stats) != 1 || stats[0].Samples != 0 || stats[0].QueueMean != 0 {
		t.Fatalf("out-of-range window should be empty: %+v", stats)
	}
}
