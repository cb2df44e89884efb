package sim_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/faults"
	"sunuintah/internal/runner"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
)

// The tests in this file hold every fast path to whole simulations: the
// scheduler, the MPI model and athread charging ahead of the calendar, and
// messages decided at their post, must produce what the engine's reference
// mode produces (Engine.SetReference), where every charge synchronises and
// every message is delivered by an event.

// simEngines returns s's distinct engines in rank order.
func simEngines(s *core.Simulation) []*sim.Engine {
	var out []*sim.Engine
	seen := map[*sim.Engine]bool{}
	for i := 0; i < s.Cfg.NumCGs; i++ {
		if e := s.Machine.CG(i).Engine(); !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// lazyRun executes spec on the serial engine (shards 0) or a ShardSet,
// fast or in the reference mode. It returns the result JSON — timings,
// counters, per-rank stats, the flight recorder's series and the canonical
// trace — followed by the run's error, if it ran out of memory, and in
// functional mode every field's bits; then each engine's final clock and
// the executed-event count. A case that does not fit in memory at all
// (Table III) returns nil.
func lazyRun(t *testing.T, spec runner.Spec, shards int, reference bool) ([]byte, []sim.Time, uint64) {
	t.Helper()
	cfg, prob, err := experiments.SpecConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = shards
	s, err := core.NewSimulation(cfg, prob)
	var oom *sw26010.ErrOutOfMemory
	if errors.As(err, &oom) {
		return nil, nil, 0
	}
	if err != nil {
		t.Fatal(err)
	}
	engs := simEngines(s)
	for _, e := range engs {
		e.SetReference(reference)
	}
	res, err := s.Run(spec.Steps)
	if err != nil && !errors.As(err, &oom) {
		t.Fatal(err)
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if err != nil {
		out = append(out, err.Error()...)
	}
	if spec.Functional {
		var labels []*taskgraph.Label
		for l := range prob.Initial {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(i, j int) bool { return labels[i].Name() < labels[j].Name() })
		for _, l := range labels {
			f, err := s.GatherField(l)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range f.Pack(s.Level.Layout.Domain, nil) {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
	}
	var clocks []sim.Time
	var events uint64
	for _, e := range engs {
		clocks = append(clocks, e.Now())
		events += e.EventsExecuted()
	}
	return out, clocks, events
}

// TestLazyClocksMatchReference runs 1, 4 and 128 ranks, asynchronous and
// synchronous, timing-only and functional, on the serial engine and on four
// shards, fast and in the reference mode, and compares results, traces,
// fields and clocks byte for byte. Fast runs must also execute fewer
// events; under fault injection every charge synchronises and every message
// is an event already, so there the counts are equal. -short (the race
// gate) drops the 128-rank cases.
func TestLazyClocksMatchReference(t *testing.T) {
	type tc struct {
		spec   runner.Spec
		faulty bool
	}
	var cases []tc
	ranks := []int{1, 4, 128}
	if testing.Short() {
		ranks = ranks[:2]
	}
	for _, cgs := range ranks {
		for _, variant := range []string{"acc.async", "acc_simd.sync"} {
			for _, functional := range []bool{false, true} {
				cases = append(cases, tc{spec: runner.Spec{Cells: "32x32x16", Layout: "8x8x2", TileSize: "4x4x8",
					CGs: cgs, Variant: variant, Steps: 3, Functional: functional, Trace: true}})
			}
		}
	}
	// Small mixed-physics patches: kernels short enough that a completion
	// flag falls due while the rank is ahead of the calendar (gangDone).
	for _, cgs := range []int{1, 4} {
		for _, variant := range []string{"acc.async", "acc_simd.sync"} {
			for _, functional := range []bool{false, true} {
				cases = append(cases, tc{spec: runner.Spec{Cells: "16x16x32", Layout: "4x4x2", CGs: cgs, Variant: variant,
					Steps: 3, Functional: functional, Trace: true, Physics: "mix:burgers=1,advection=1,heat3d=1,seed=3"}})
			}
		}
	}
	cases = append(cases,
		// The synchronous scheduler on eight ranks with no recorder attached,
		// the only untraced case.
		tc{spec: runner.Spec{Cells: "16x16x16", Layout: "2x2x2", TileSize: "8x8x4", CGs: 8, Variant: "acc.sync", Steps: 3}},
		tc{spec: runner.Spec{Cells: "32x32x32", Layout: "2x2x2", CGs: 4, Variant: "host.sync", Steps: 3, Functional: true, Trace: true}},
		tc{spec: runner.Spec{Cells: "32x32x32", Layout: "2x2x2", CGs: 4, Variant: "acc.async", Steps: 3, Functional: true, Trace: true,
			Faults: &faults.Plan{Seed: 7, Drop: 0.1, Dup: 0.1, Delay: 0.1, Straggle: 0.1, Stall: 0.05}}, faulty: true},
	)
	for _, c := range cases {
		for _, shards := range []int{0, 4} {
			name := fmt.Sprintf("%s/%s/%dcg/functional=%v/faults=%v/shards=%d", c.spec.Cells, c.spec.Variant, c.spec.CGs, c.spec.Functional, c.faulty, shards)
			t.Run(name, func(t *testing.T) {
				want, wantClocks, wantEvents := lazyRun(t, c.spec, shards, true)
				got, gotClocks, gotEvents := lazyRun(t, c.spec, shards, false)
				if !bytes.Equal(got, want) {
					t.Fatalf("lazy run differs from the synchronising one:\nlazy: %.2000s\nsync: %.2000s", got, want)
				}
				if !reflect.DeepEqual(gotClocks, wantClocks) {
					t.Fatalf("engine clocks %v, synchronising %v", gotClocks, wantClocks)
				}
				if c.faulty && gotEvents != wantEvents || !c.faulty && gotEvents >= wantEvents {
					t.Fatalf("lazy run executed %d events, synchronising %d", gotEvents, wantEvents)
				}
			})
		}
	}
}

// TestPaperMatrixMatchesReference runs every case of the paper's 250-case
// matrix for two steps fast and in the reference mode and compares the two
// byte for byte; the reference must execute more events. Cases that do not
// fit in memory (Table III) stop where they fail, alike in both runs.
func TestPaperMatrixMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 250-case matrix twice")
	}
	var cases int
	var fastEvents, refEvents uint64
	for _, prob := range experiments.Problems {
		for _, cgs := range experiments.CGCounts {
			if cgs < prob.MinCGs {
				continue
			}
			for _, v := range experiments.Variants {
				cases++
				spec := experiments.SpecFor(prob, cgs, v, experiments.Options{Steps: 2}, 0)
				want, _, wantEvents := lazyRun(t, spec, 0, true)
				got, _, gotEvents := lazyRun(t, spec, 0, false)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: fast run differs from the reference:\nfast:      %.2000s\nreference: %.2000s", spec, got, want)
				}
				if want != nil && gotEvents >= wantEvents {
					t.Errorf("%s: fast run executed %d events, reference %d", spec, gotEvents, wantEvents)
				}
				fastEvents += gotEvents
				refEvents += wantEvents
			}
		}
	}
	if cases != 250 {
		t.Fatalf("matrix has %d cases, want 250", cases)
	}
	t.Logf("%d cases: %d events fast, %d in the reference mode", cases, fastEvents, refEvents)
}
