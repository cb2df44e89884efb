package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sunuintah/internal/faults"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/obs"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

// A forced mid-run CG crash must recover through checkpoint/restart and
// land on exactly the same fields as an uninterrupted run.
func TestResilientCrashRestartMatchesHealthyRun(t *testing.T) {
	cells, patches := grid.IV(16, 16, 16), grid.IV(2, 2, 1)
	const nSteps = 6
	prob, u := burgersProblem(cells, patches)
	cfg := functionalCfg(cells, patches, 2, scheduler.ModeAsync, false)
	ref, _ := runAndGather(t, cfg, prob, u, nSteps)

	cfg.Faults = &faults.Plan{Seed: 1, CrashAtStep: 4, CrashRank: 1}
	res, s, err := runResilient(cfg, prob, nSteps)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Faults.Recovery
	if rec == nil || rec.Crashes != 1 || rec.Restarts != 1 || !rec.Recovered {
		t.Fatalf("expected one crash + one restart, got %+v", rec)
	}
	if rec.Checkpoints == 0 || rec.LostWork <= 0 {
		t.Fatalf("recovery bookkeeping wrong: %+v", rec)
	}
	if res.Steps != nSteps {
		t.Fatalf("resilient run completed %d of %d steps", res.Steps, nSteps)
	}
	got, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, s.Level.Layout.Domain); d != 0 {
		t.Fatalf("recovered run differs from healthy run by %g", d)
	}
}

// A timing-only resilient run recovers via the fast-forward path.
func TestResilientCrashTimingOnly(t *testing.T) {
	cells, patches := grid.IV(32, 32, 64), grid.IV(2, 2, 2)
	const nSteps = 5
	prob, _ := burgersProblem(cells, patches)
	cfg := Config{Cells: cells, PatchCounts: patches, NumCGs: 2,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 8)},
		Faults:    &faults.Plan{Seed: 3, CrashAtStep: 3},
	}
	res, err := RunResilient(cfg, prob, nSteps)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Faults.Recovery
	if rec == nil || rec.Crashes != 1 || !rec.Recovered || res.Steps != nSteps {
		t.Fatalf("timing-only recovery failed: steps=%d rec=%+v", res.Steps, rec)
	}
	if len(res.StepEnds) != nSteps {
		t.Fatalf("want %d step ends, got %d", nSteps, len(res.StepEnds))
	}
	for i := 1; i < len(res.StepEnds); i++ {
		if res.StepEnds[i] <= res.StepEnds[i-1] {
			t.Fatalf("step ends not increasing: %v", res.StepEnds)
		}
	}
	if res.WallTime <= res.StepEnds[len(res.StepEnds)-1]-res.StepEnds[0] {
		// Wall time includes lost work, checkpoint and restart overhead.
		t.Fatalf("wall time %v does not include recovery overhead", res.WallTime)
	}
}

// An injected offload stall must be aborted at its deadline and re-offloaded
// successfully, with numerics identical to a healthy run.
func TestReoffloadAfterInjectedStall(t *testing.T) {
	cells, patches := grid.IV(16, 16, 16), grid.IV(2, 2, 1)
	const nSteps = 3
	prob, u := burgersProblem(cells, patches)
	cfg := functionalCfg(cells, patches, 2, scheduler.ModeAsync, false)
	ref, _ := runAndGather(t, cfg, prob, u, nSteps)

	// A moderate stall rate: some offloads hang, their retries (fresh
	// draws) mostly succeed.
	cfg.Faults = &faults.Plan{Seed: 11, Stall: 0.3}
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nSteps)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Faults
	if fr == nil || fr.Injected.OffloadStalls == 0 {
		t.Fatalf("seed 11 injected no stalls: %+v", fr)
	}
	if fr.OffloadTimeouts == 0 || fr.Reoffloads == 0 {
		t.Fatalf("stalls not recovered by re-offload: %+v", fr)
	}
	got, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, s.Level.Layout.Domain); d != 0 {
		t.Fatalf("re-offloaded run differs from healthy run by %g", d)
	}
}

// With every offload stalling, gangs go unhealthy and kernels degrade to
// MPE execution — and the numerics still match the healthy async run.
func TestMPEFallbackNumericsMatchHealthyRun(t *testing.T) {
	cells, patches := grid.IV(16, 16, 16), grid.IV(2, 2, 1)
	const nSteps = 3
	prob, u := burgersProblem(cells, patches)
	for _, mode := range []scheduler.Mode{scheduler.ModeAsync, scheduler.ModeSync} {
		cfg := functionalCfg(cells, patches, 2, mode, false)
		ref, _ := runAndGather(t, cfg, prob, u, nSteps)

		cfg.Faults = &faults.Plan{Seed: 1, Stall: 1}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(nSteps)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		fr := res.Faults
		if fr == nil || fr.MPEFallbacks == 0 || fr.UnhealthyGangs == 0 {
			t.Fatalf("%v: expected MPE fallback under total stall, got %+v", mode, fr)
		}
		got, err := s.GatherField(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := field.MaxAbsDiff(got, ref, s.Level.Layout.Domain); d != 0 {
			t.Fatalf("%v: MPE-fallback run differs from healthy run by %g", mode, d)
		}
	}
}

// TestSyncWaitTracedAsSpins: the synchronous mode has one wait, with or
// without faults. Each offload blocks the MPE once, that wait is one "spin"
// span, and KernelWaitTime is the spans' summed length. Under stall=1 every
// offload runs into its deadline, so every wait is a timeout.
func TestSyncWaitTracedAsSpins(t *testing.T) {
	cells, patches := grid.IV(32, 32, 64), grid.IV(2, 2, 2)
	prob, _ := burgersProblem(cells, patches)
	for _, plan := range []*faults.Plan{nil, {Seed: 1, Stall: 1}} {
		cfg := Config{Cells: cells, PatchCounts: patches, NumCGs: 4,
			Scheduler: scheduler.Config{Mode: scheduler.ModeSync, TileSize: grid.IV(8, 8, 8)},
			Faults:    plan, Obs: &obs.Options{Trace: true}}
		res, err := RunResilient(cfg, prob, 3)
		if err != nil {
			t.Fatal(err)
		}
		spins := make([]int64, cfg.NumCGs)
		waited := make([]sim.Time, cfg.NumCGs)
		for _, e := range res.Trace {
			if e.Kind == trace.KindKernel && strings.HasPrefix(e.Name, "spin ") {
				spins[e.Rank]++
				waited[e.Rank] += e.End - e.Start
			}
		}
		for r, st := range res.RankStats {
			if st.Offloads == 0 || spins[r] != st.Offloads {
				t.Errorf("plan %+v rank %d: %d spin spans for %d offloads", plan, r, spins[r], st.Offloads)
			}
			if waited[r] <= 0 || waited[r] != st.KernelWaitTime {
				t.Errorf("plan %+v rank %d: spins last %v, KernelWaitTime %v", plan, r, waited[r], st.KernelWaitTime)
			}
			if plan != nil && (st.Faults == nil || st.Faults.OffloadTimeouts != st.Offloads) {
				t.Errorf("rank %d: stall=1 should time out all %d offloads: %+v", r, st.Offloads, st.Faults)
			}
		}
	}
}

// Message drops, duplicates and delays must be survived by resend and
// duplicate suppression without corrupting the numerics.
func TestMessageFaultsRecovered(t *testing.T) {
	cells, patches := grid.IV(16, 16, 16), grid.IV(2, 2, 2)
	const nSteps = 4
	prob, u := burgersProblem(cells, patches)
	cfg := functionalCfg(cells, patches, 4, scheduler.ModeAsync, false)
	ref, _ := runAndGather(t, cfg, prob, u, nSteps)

	cfg.Faults = &faults.Plan{Seed: 2, Drop: 0.2, Dup: 0.2, Delay: 0.2, Degrade: 0.2}
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nSteps)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Faults
	if fr == nil || fr.Injected.MsgsDropped == 0 || fr.Injected.MsgsDuplicated == 0 {
		t.Fatalf("seed 2 injected no message faults: %+v", fr)
	}
	if fr.Resends < fr.Injected.MsgsDropped {
		t.Fatalf("dropped %d messages but resent only %d", fr.Injected.MsgsDropped, fr.Resends)
	}
	if fr.DupsDiscarded == 0 {
		t.Fatalf("duplicates injected but none discarded: %+v", fr)
	}
	got, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := field.MaxAbsDiff(got, ref, s.Level.Layout.Domain); d != 0 {
		t.Fatalf("faulty-network run differs from healthy run by %g", d)
	}
}

// Identical seed + plan must give byte-identical results, and a different
// seed a different fault history.
func TestResilientDeterminism(t *testing.T) {
	cells, patches := grid.IV(32, 32, 64), grid.IV(2, 2, 2)
	const nSteps = 4
	prob, _ := burgersProblem(cells, patches)
	run := func(seed uint64) string {
		cfg := Config{Cells: cells, PatchCounts: patches, NumCGs: 2,
			Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 8)},
			Faults:    faults.Default().Scaled(1)}
		cfg.Faults.Seed = seed
		res, err := RunResilient(cfg, prob, nSteps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Fatal("identical seed + plan produced different results")
	}
	if a == c {
		t.Fatal("different seeds produced identical fault histories")
	}
}

// A run that exhausts MaxRestarts is reported lost, with partial progress.
func TestResilientGivesUpAfterMaxRestarts(t *testing.T) {
	cells, patches := grid.IV(32, 32, 32), grid.IV(2, 2, 1)
	const nSteps = 4
	prob, _ := burgersProblem(cells, patches)
	cfg := Config{Cells: cells, PatchCounts: patches, NumCGs: 2,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 8)},
		// Rate 1 redraws a crash point each restart. Seed 2's land past
		// the checkpoint every time, so the run crashes MaxRestarts+1 times.
		Faults: &faults.Plan{Seed: 2, Crash: 1},
	}
	res, err := RunResilient(cfg, prob, nSteps)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Faults.Recovery
	if rec == nil || rec.Recovered || rec.Restarts != faults.MaxRestarts {
		t.Fatalf("run with certain repeated crashes should be lost after %d restarts: %+v", faults.MaxRestarts, rec)
	}
	if res.Steps >= nSteps {
		t.Fatalf("lost run reports full completion: %d steps", res.Steps)
	}
}

// Fault-free results must not mention the fault plane at all.
func TestZeroPlanResultHasNoFaultFields(t *testing.T) {
	cells, patches := grid.IV(32, 32, 32), grid.IV(2, 2, 1)
	prob, _ := burgersProblem(cells, patches)
	cfg := Config{Cells: cells, PatchCounts: patches, NumCGs: 2,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 8)}}
	res, err := RunResilient(cfg, prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Fault") || strings.Contains(string(b), "Recovery") {
		t.Fatalf("zero-plan result JSON leaks fault fields: %s", b)
	}
}

func TestResilientRunLeaksNoGoroutines(t *testing.T) {
	cells, patches := grid.IV(32, 32, 64), grid.IV(2, 2, 2)
	prob, _ := burgersProblem(cells, patches)
	timing := Config{Cells: cells, PatchCounts: patches, NumCGs: 8,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 8)},
		Faults:    &faults.Plan{Seed: 3, CrashAtStep: 3},
	}
	// The functional case also has tile workers behind the gangs when the
	// crash lands.
	functional := functionalCfg(grid.IV(16, 16, 16), grid.IV(2, 2, 1), 2, scheduler.ModeAsync, false)
	functional.Faults = &faults.Plan{Seed: 1, CrashAtStep: 4, CrashRank: 1}
	fprob, _ := burgersProblem(functional.Cells, functional.PatchCounts)
	for _, c := range []struct {
		name string
		cfg  Config
		prob Problem
	}{{"timing", timing, prob}, {"functional", functional, fprob}} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			base := runtime.NumGoroutine()
			res, err := RunResilient(c.cfg, c.prob, 5)
			if err != nil {
				t.Fatal(err)
			}
			if rec := res.Faults.Recovery; rec == nil || rec.Crashes != 1 {
				t.Fatalf("the plan should crash the run once: %+v", rec)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before: the crashed incarnation's ranks leaked",
						runtime.NumGoroutine(), base)
				}
				runtime.Gosched()
			}
		})
	}
}

// However Run ends — normally, on a rank's error or on a crash — it runs
// or waits out every tile its offloads queued: once it returns no kernel is
// running, so a restore or a restart never races a late write into a
// warehouse field, and the queue's workers, which exit once it is empty,
// leave the goroutine count where it was. A crash and an error both stop
// the engine with offloads in flight.
func TestCrashedRunDrainsTileWorkers(t *testing.T) {
	cells, patches := grid.IV(32, 32, 32), grid.IV(2, 1, 1)
	for _, procs := range []int{1, 2} {
		for _, end := range []string{"normal", "rank error", "crash"} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", end, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				base := runtime.NumGoroutine()
				prob, _ := burgersProblem(cells, patches)
				var running, ran atomic.Int64
				task := *prob.Tasks[0]
				kernel := *task.Kernel
				compute := kernel.Compute
				kernel.Compute = func(tc *taskgraph.TileContext) {
					running.Add(1)
					defer running.Add(-1)
					ran.Add(1)
					if tc.Tile.Box.Lo == tc.Patch.Box.Lo {
						time.Sleep(5 * time.Millisecond) // keep the job in flight well past its launch
					}
					compute(tc)
				}
				task.Kernel = &kernel
				prob.Tasks = []*taskgraph.Task{&task}
				cfg := functionalCfg(cells, patches, 2, scheduler.ModeAsync, false)
				cfg.Scheduler.CPEGroups = 2
				switch end {
				case "rank error":
					// A second label's kernel needs far more LDM than a CPE
					// has; its first offload fails the rank's step while the
					// Burgers kernel runs on the other gang.
					v := taskgraph.NewLabel("v", nil)
					prob.Tasks = append(prob.Tasks, &taskgraph.Task{
						Name: "ldm-hog", Kind: taskgraph.KindOffload,
						Requires: []taskgraph.Dep{{Label: v, DW: taskgraph.OldDW, Ghost: 8}},
						Computes: []taskgraph.Dep{{Label: v, DW: taskgraph.NewDW}},
						Kernel:   &taskgraph.Kernel{Weight: 1, Compute: func(*taskgraph.TileContext) {}},
					})
					prob.Initial[v] = func(x, y, z float64) float64 { return 0 }
				case "crash":
					cfg.Faults = &faults.Plan{Seed: 1, CrashAtStep: 4, CrashRank: 1}
				}
				s, err := NewSimulation(cfg, prob)
				if err != nil {
					t.Fatal(err)
				}
				if end == "crash" {
					s.armCrash(1, 4, 0.8) // late in the step, while both gangs compute
				}
				_, err = s.Run(6)
				var ce *CrashError
				switch {
				case end == "normal" && err != nil,
					end == "rank error" && (err == nil || !strings.Contains(err.Error(), "LDM")),
					end == "crash" && !errors.As(err, &ce):
					t.Fatalf("want a %s end, got %v", end, err)
				}
				if n := running.Load(); n != 0 {
					t.Fatalf("%d tiles still computing after Run returned", n)
				}
				if ran.Load() == 0 {
					t.Fatal("no kernel ran")
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
					}
					runtime.Gosched()
				}
			})
		}
	}
}
