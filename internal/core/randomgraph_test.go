package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// randomProblem generates a random chain of offloadable tasks over a
// persistent state label u and a set of intermediate labels:
//
//	t1: v1 = f1(u@old±ghost)
//	t2: v2 = f2(u@old, v1@new)
//	...
//	tN: u  = fN(u@old±ghost, v_{N-1}@new)
//
// Every kernel is a linear stencil with seed-derived coefficients, so the
// scheduled distributed execution can be checked cell-for-cell against a
// sequential whole-domain evaluation of the same task chain.
type randomProblem struct {
	u      *taskgraph.Label
	inters []*taskgraph.Label
	tasks  []*taskgraph.Task
	ghosts []int
	coefs  [][3]float64
}

func buildRandomProblem(rng *rand.Rand) *randomProblem {
	rp := &randomProblem{}
	// Zero Dirichlet boundary: nil BC function fills ghosts with 0 in both
	// the runtime and the reference.
	rp.u = taskgraph.NewLabel("state", nil)
	nInter := rng.Intn(3) // 0..2 intermediate stages

	mkKernel := func(in *taskgraph.Label, ghost int, extra *taskgraph.Label, out *taskgraph.Label, coef [3]float64) *taskgraph.Kernel {
		return &taskgraph.Kernel{
			FlopsPerCell: 10,
			Weight:       0.2,
			Compute: func(tc *taskgraph.TileContext) {
				src := tc.In.Get(in)
				var ex *field.Cell
				if extra != nil {
					ex = tc.In.Get(extra)
				}
				dst := tc.Out.Get(out)
				tc.Tile.Box.ForEach(func(c grid.IVec) {
					v := coef[0] * src.At(c)
					if ghost > 0 {
						v += coef[1] * (src.At(c.Add(grid.IV(1, 0, 0))) +
							src.At(c.Sub(grid.IV(0, 1, 0))) +
							src.At(c.Add(grid.IV(0, 0, 1))))
					}
					if ex != nil {
						v += coef[2] * ex.At(c)
					}
					dst.Set(c, v)
				})
			},
		}
	}

	var prev *taskgraph.Label
	for i := 0; i <= nInter; i++ {
		last := i == nInter
		out := rp.u
		if !last {
			out = taskgraph.NewLabel(fmt.Sprintf("inter%d", i), nil)
			rp.inters = append(rp.inters, out)
		}
		ghost := rng.Intn(2)
		coef := [3]float64{
			0.5 + rng.Float64(),
			(rng.Float64() - 0.5) * 0.1,
			(rng.Float64() - 0.5) * 0.5,
		}
		reqs := []taskgraph.Dep{{Label: rp.u, DW: taskgraph.OldDW, Ghost: ghost}}
		var extra *taskgraph.Label
		if prev != nil && rng.Intn(2) == 0 {
			extra = prev
			reqs = append(reqs, taskgraph.Dep{Label: prev, DW: taskgraph.NewDW})
		}
		rp.tasks = append(rp.tasks, &taskgraph.Task{
			Name:     fmt.Sprintf("stage%d", i),
			Kind:     taskgraph.KindOffload,
			Requires: reqs,
			Computes: []taskgraph.Dep{{Label: out, DW: taskgraph.NewDW}},
			Kernel:   mkKernel(rp.u, ghost, extra, out, coef),
		})
		rp.ghosts = append(rp.ghosts, ghost)
		rp.coefs = append(rp.coefs, coef)
		prev = out
	}
	return rp
}

// reference executes the task chain sequentially on whole-domain fields,
// reusing each task's own kernel body via a domain-sized tile context.
func (rp *randomProblem) reference(lv *grid.Level, init func(x, y, z float64) float64, steps int) *field.Cell {
	dom := lv.Layout.Domain
	maxGhost := 1
	state := field.NewCellWithGhost(dom, maxGhost)
	state.FillFunc(dom, func(c grid.IVec) float64 {
		x, y, z := lv.CellCenter(c)
		return init(x, y, z)
	})
	for s := 0; s < steps; s++ {
		newVars := map[*taskgraph.Label]*field.Cell{}
		for _, task := range rp.tasks {
			outLabel := task.Computes[0].Label
			out := field.NewCellWithGhost(dom, maxGhost)
			var ins taskgraph.TileVars
			for _, d := range task.Requires {
				var f *field.Cell
				if d.DW == taskgraph.OldDW {
					f = state
				} else {
					f = newVars[d.Label]
				}
				ins = append(ins, taskgraph.TileVar{Label: d.Label, Data: f})
			}
			task.Kernel.Compute(&taskgraph.TileContext{
				Tile: grid.Tile{Box: dom}, In: ins,
				Out: taskgraph.TileVars{{Label: outLabel, Data: out}}, Level: lv,
			})
			newVars[outLabel] = out
		}
		state = newVars[rp.u] // ghosts are zero from allocation, as the BC fills them
	}
	return state
}

func TestPropertyRandomTaskChainsMatchReference(t *testing.T) {
	init := func(x, y, z float64) float64 {
		return 1 + 0.5*x + 0.25*y*y + 0.125*z
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rp := buildRandomProblem(rng)
			cells := grid.IV(12, 12, 12)
			patches := grid.IV(2, 2, 2)
			cgs := []int{1, 2, 4, 8}[rng.Intn(4)]
			mode := []scheduler.Mode{scheduler.ModeMPEOnly, scheduler.ModeSync, scheduler.ModeAsync}[rng.Intn(3)]
			steps := 1 + rng.Intn(3)

			lv, err := grid.NewUnitCubeLevel(cells, patches)
			if err != nil {
				t.Fatal(err)
			}
			want := rp.reference(lv, init, steps)

			prob := Problem{
				Tasks:   rp.tasks,
				Initial: map[*taskgraph.Label]func(x, y, z float64) float64{rp.u: init},
				Dt:      1e-3,
			}
			cfg := Config{
				Cells:       cells,
				PatchCounts: patches,
				NumCGs:      cgs,
				Scheduler: scheduler.Config{
					Mode:       mode,
					TileSize:   grid.IV(6, 6, 3),
					Functional: true,
				},
			}
			s, err := NewSimulation(cfg, prob)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(steps); err != nil {
				t.Fatal(err)
			}
			got, err := s.GatherField(rp.u)
			if err != nil {
				t.Fatal(err)
			}
			if d := field.MaxAbsDiff(got, want, lv.Layout.Domain); d > 1e-12 {
				t.Fatalf("seed %d (%d tasks, %d CGs, %v, %d steps): max diff %g",
					seed, len(rp.tasks), cgs, mode, steps, d)
			}
		})
	}
}
