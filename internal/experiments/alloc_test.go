package experiments

import (
	"runtime"
	"testing"

	"sunuintah/internal/core"
	"sunuintah/internal/runner"
)

// TestHaloSteadyStepAllocs bounds the host allocations of one warm timestep
// of the bench's halo-steady case (128 ranks, timing-only, no trace). It
// locks four things out of the step loop: a tiling re-derived per offload,
// trace strings built with tracing off, a goroutine per resumed rank, and
// per-offload completion bookkeeping (handle list, CPE context, busy-clear
// closure: three allocations an offload, 384 of a step's 2 772, before the
// gang's completion list moved into the athread group), and requests lost to
// the pool: a send freed before its completion event ran used to go to the
// collector, and a pooled request dropped its signal's callback capacity
// (1 830 before that fix, 1 407 after). Now a message between ranks on one
// engine needs no envelope at all: one that arrives before its receive is
// posted waits on the receiver's inflight list by value, so no envelope
// drifts from the sender's pool into the receiver's (with pooled envelopes
// retired by the receiver, that drift read 1 650). A warehouse swap now
// reuses the emptied warehouse, its entries are held by value and gatherIO
// fills rank-owned scratch: 1 359 before those three, measured 591 after;
// the bound is that plus 10%.
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
	if perStep := testing.AllocsPerRun(3, run) / window; perStep > 650 {
		t.Fatalf("%.0f allocations per warm step, want <= 650", perStep)
	} else {
		t.Logf("%.0f allocations per warm step", perStep)
	}
}

// TestHaloSteadyEventsPerStep bounds the calendar events of one warm
// timestep of the same case on the serial engine. An already-complete
// receive test charges lazily and a message fires its send's completion
// from its own delivery event; without either, a step executes 9 501.4
// events. A receive paired with its send at post time answers a test that
// ends before the arrival lazily too; without that, a step executes 6 031
// events. With it, 3 686.4: 1 808 deliveries, 571.2 callback closures
// turning a fire into a parked rank's wake-up, 275.6 sleep, 419.2 sync,
// 426.2 signal and 25.6 spawn wake-ups, 128 gang completions and 32.6
// inline advances. A message between ranks on one engine is now no event
// and a waiting rank parks once, so the deliveries and closures are gone:
// 123.0 sleep, 415.2 sync, 426.2 park and 25.6 spawn wake-ups, 128 gang
// completions and 36.6 inline advances. Measured 1 154.6; the bound leaves
// 3% of headroom.
func TestHaloSteadyEventsPerStep(t *testing.T) {
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
	run() // warm
	eng := s.Machine.CG(0).Engine()
	ev0 := eng.EventsExecuted()
	run()
	if perStep := float64(eng.EventsExecuted()-ev0) / window; perStep > 1190 {
		t.Fatalf("%.1f events per warm step, want <= 1190", perStep)
	} else {
		t.Logf("%.1f events per warm step", perStep)
	}
}

// TestFunctionalStepAllocs bounds the host allocations of one warm
// functional timestep: 128 LDM tiles, each with an input and an output
// buffer and a kernel invocation. What it locks out is per-tile garbage —
// buffer records, variable maps, tile contexts, closures and kernel scratch
// draws cost 14-16 allocations a tile when each tile made its own (1,750
// to 2,100 a step on this case, by worker count); they now live in
// per-offload arrays that are rewound, so what remains is per step, per
// message and per patch. With the tile numerics running behind the gang
// (the slot's job, started without allocating) and the warehouse swap
// reusing its emptied warehouse this read 33 at both widths, down from 63
// and 111; the bound is that plus 10%.
func TestFunctionalStepAllocs(t *testing.T) {
	const window = 4
	cfg, prob, err := SpecConfig(runner.Spec{Cells: "64x64x64", Layout: "2x2x2", CGs: 2, Variant: "acc_simd.async", Steps: window, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		// The scheduler allows GOMAXPROCS−1 tile-queue workers, read once
		// when the simulation is built.
		procs := runtime.GOMAXPROCS(workers)
		s, err := core.NewSimulation(cfg, prob)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := s.Run(window); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: tile plans, per-offload arrays, pools
		if perStep := testing.AllocsPerRun(3, run) / window; perStep > 36 {
			t.Errorf("workers=%d: %.0f allocations per warm step, want <= 36", workers, perStep)
		} else {
			t.Logf("workers=%d: %.0f allocations per warm step", workers, perStep)
		}
	}
}
