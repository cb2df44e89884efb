package experiments

import (
	"testing"

	"sunuintah/internal/core"
	"sunuintah/internal/runner"
)

// TestHaloSteadyStepAllocs bounds the host allocations of one warm timestep
// of the bench's halo-steady case (128 ranks, timing-only, no trace). It
// locks three things out of the step loop: a tiling re-derived per offload,
// trace strings built with tracing off, and a goroutine per resumed rank.
func TestHaloSteadyStepAllocs(t *testing.T) {
	const window = 5
	cfg, prob, err := SpecConfig(runner.Spec{Problem: "32x32x512", CGs: 128, Variant: "acc_simd.async", Steps: window})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := s.Run(window); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: tile plans, interned notes, event arena
	if perStep := testing.AllocsPerRun(3, run) / window; perStep > 3500 {
		t.Fatalf("%.0f allocations per warm step, want <= 3500", perStep)
	} else {
		t.Logf("%.0f allocations per warm step", perStep)
	}
}
