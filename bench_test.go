// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artifact through the
// experiments package (timing-only runtime, reduced to 2 timesteps so the
// suite completes in minutes) and reports the artifact's headline numbers
// as benchmark metrics.
//
//	go test -bench=. -benchmem
//
// For the full 10-step artifacts in the paper's layout, run
//
//	go run ./cmd/sunbench all
package repro

import (
	"context"
	"testing"

	"sunuintah/internal/experiments"
	"sunuintah/internal/runner"
	"sunuintah/internal/sim"
	"sunuintah/internal/workload"
)

// benchSteps keeps each regenerated artifact fast enough for a benchmark
// iteration while preserving every shape (per-step costs are step-
// independent in this model).
const benchSteps = 2

func newSweep() *experiments.Sweep {
	return experiments.NewSweep(experiments.Options{Steps: benchSteps})
}

func BenchmarkTable1FlopsPerCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(newSweep())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FlopsPerCell, "flops/cell-small")
		b.ReportMetric(rows[len(rows)-1].FlopsPerCell, "flops/cell-large")
		b.ReportMetric(rows[len(rows)-1].ExpFraction*100, "exp-%")
	}
}

func BenchmarkTable3ProblemSettings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIII(newSweep())
		if err != nil {
			b.Fatal(err)
		}
		starred := 0
		for _, r := range rows {
			if r.Starred {
				starred++
			}
		}
		b.ReportMetric(float64(starred), "oom-verified-rows")
	}
}

func BenchmarkTable5StrongScalingEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableV(newSweep())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SimdAsync, "eff-%-small-simd.async")
		b.ReportMetric(rows[len(rows)-1].SimdAsync, "eff-%-large-simd.async")
		b.ReportMetric(rows[len(rows)-1].SimdSync, "eff-%-large-simd.sync")
	}
}

func BenchmarkTable6AsyncImprovementNonVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AsyncImprovement(newSweep(), false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Average(), "avg-improvement-%")
		b.ReportMetric(t.Best(), "best-improvement-%")
	}
}

func BenchmarkTable7AsyncImprovementVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AsyncImprovement(newSweep(), true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Average(), "avg-improvement-%")
		b.ReportMetric(t.Best(), "best-improvement-%")
	}
}

func BenchmarkFig5StrongScalingWallTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure5(newSweep())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: the largest problem's fastest-variant endpoints.
		for _, fs := range series {
			if fs.Problem == "128x128x512" && fs.Variant == "acc_simd.async" {
				b.ReportMetric(fs.Points[0].PerStep, "s/step-8cg")
				b.ReportMetric(fs.Points[len(fs.Points)-1].PerStep, "s/step-128cg")
			}
		}
	}
}

func benchBoost(b *testing.B, problemIdx int) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Boosts(newSweep(), experiments.Problems[problemIdx])
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1e9, 0.0
		for _, pt := range fig.Points {
			if pt.AccAsync < lo {
				lo = pt.AccAsync
			}
			if pt.SimdAsy > hi {
				hi = pt.SimdAsy
			}
		}
		b.ReportMetric(lo, "min-offload-boost-x")
		b.ReportMetric(hi, "max-total-boost-x")
	}
}

func BenchmarkFig6SmallProblemBoost(b *testing.B)  { benchBoost(b, 0) }
func BenchmarkFig7MediumProblemBoost(b *testing.B) { benchBoost(b, 3) }
func BenchmarkFig8LargeProblemBoost(b *testing.B)  { benchBoost(b, 6) }

func BenchmarkFig9FloatingPointPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure9And10(newSweep())
		if err != nil {
			b.Fatal(err)
		}
		for _, fs := range series {
			if fs.Problem == "128x128x512" {
				last := fs.Points[len(fs.Points)-1]
				b.ReportMetric(last.Gflops, "gflops-128cg")
			}
		}
	}
}

// BenchmarkMixedPhysicsEndToEnd times a run with all three model
// problems (Burgers, advection, heat3d) partitioned across the patch
// layout — the per-patch task-filtering path the workload scenarios
// exercise, with physics-interface BC fills replacing halo exchanges at
// model boundaries.
func BenchmarkMixedPhysicsEndToEnd(b *testing.B) {
	spec := runner.Spec{
		Cells:   "16x16x32",
		Layout:  "2x2x4",
		CGs:     4,
		Variant: "acc.async",
		Steps:   benchSteps,
		Physics: "mix:burgers=1,advection=1,heat3d=1,seed=3",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exec(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("benchmark case infeasible")
		}
		b.ReportMetric(float64(res.Sim.PerStep), "simulated-s/step")
	}
}

// BenchmarkWorkloadScenario times the full scenario sweep: expand the
// default mixed-physics scenario and run every job on a fresh pool.
func BenchmarkWorkloadScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSweep()
		rep, err := experiments.RunScenario(s, workload.DefaultScenario())
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
		b.ReportMetric(float64(rep.Jobs), "jobs")
	}
}

func BenchmarkFig10FloatingPointEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure9And10(newSweep())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, fs := range series {
			for _, pt := range fs.Points {
				if pt.Efficiency > best {
					best = pt.Efficiency
				}
			}
		}
		b.ReportMetric(best*100, "best-efficiency-%")
	}
}

// BenchmarkProcessHandoff measures one process resume: two processes
// ping-pong through a pair of signals, so every op is a wake-up event plus
// the engine -> process -> engine switch pair — what each Sleep, Wait and
// MPI test of a rank driver costs the host. Zero allocs per resume.
func BenchmarkProcessHandoff(b *testing.B) {
	e := sim.NewEngine()
	var ping, pong sim.Signal
	ping.Init(e, "ping")
	pong.Init(e, "pong")
	rallies := (b.N + 1) / 2
	resumes := 0
	player := func(mine, theirs *sim.Signal, name string) {
		e.Spawn(name, func(p *sim.Process) {
			for i := 0; i < rallies; i++ {
				mine.Wait(p)
				mine.Init(e, name)
				resumes++
				theirs.Fire()
			}
		})
	}
	player(&ping, &pong, "ping")
	player(&pong, &ping, "pong")
	ping.Fire()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if resumes != 2*rallies {
		b.Fatalf("%d resumes, want %d", resumes, 2*rallies)
	}
}
