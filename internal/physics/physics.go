// Package physics is the facade over the repo's model problems. It
// registers Burgers, advection and heat3d as first-class scheduled task
// types behind one interface, parses physics selectors (a single model
// or a seeded per-patch mixture), and builds the core.Problem a selector
// denotes. Mixtures partition the patch layout: each patch is assigned
// one model by a stateless seeded draw on its patch ID, the models'
// tasks carry taskgraph patch predicates restricting them to their own
// patches, and each physics region couples to its neighbours through
// the label's exact-solution boundary condition — a Dirichlet interface,
// the way mixed-physics AMR levels couple through prescribed boundaries.
//
// Selector syntax:
//
//	burgers | advection | heat3d
//	mix:burgers=2,advection=1,heat3d=1[,seed=N]
//
// The empty selector means burgers, the historical single-physics
// default; it builds a byte-identical problem (same tasks, same labels,
// same Dt), so every pre-existing cached result stays valid.
package physics

import (
	"fmt"
	"strconv"
	"strings"

	"sunuintah/internal/advection"
	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/heat3d"
	"sunuintah/internal/rng"
	"sunuintah/internal/taskgraph"
)

// assignStream is the rng stream index of the per-patch assignment
// draws (lane = patch ID), chosen stateless so the assignment depends
// only on (seed, patch), never on evaluation order.
const assignStream = 0

// InitFunc supplies a label's t=0 values.
type InitFunc func(x, y, z float64) float64

// model is one registered model problem: its advance task, initial
// condition and stable timestep, in the shape specConfig historically
// built for Burgers.
type model struct {
	name string
	// taskPrefix is how the model's intervals are named in traces
	// ("burgers." for "burgers.advance"), used by workload trace replay.
	taskPrefix string
	build      func() (*taskgraph.Task, *taskgraph.Label, InitFunc)
	stableDt   func(dx, dy, dz float64) float64
	// initProfile, when set, is the initial condition as one factor per
	// axis (core.Problem.InitialProfile).
	initProfile func(axis int, s float64) float64
}

// models is the registry, in canonical order. Mixture canonical forms,
// assignment indices and task declaration order all follow it.
var models = []model{
	{
		name:       "burgers",
		taskPrefix: "burgers.",
		build: func() (*taskgraph.Task, *taskgraph.Label, InitFunc) {
			u := burgers.NewULabel()
			return burgers.NewAdvanceTask(u, burgers.FastExpLib), u, burgers.Initial
		},
		stableDt:    burgers.StableDt,
		initProfile: burgers.InitialProfile,
	},
	{
		name:       "advection",
		taskPrefix: "advection.",
		build: func() (*taskgraph.Task, *taskgraph.Label, InitFunc) {
			v := advection.DefaultVelocity
			q := v.NewLabel()
			return v.NewAdvanceTask(q), q, v.Initial
		},
		stableDt: advection.DefaultVelocity.StableDt,
	},
	{
		name:       "heat3d",
		taskPrefix: "heat.",
		build: func() (*taskgraph.Task, *taskgraph.Label, InitFunc) {
			u := heat3d.NewLabel()
			return heat3d.NewAdvanceTask(u), u, heat3d.Initial
		},
		stableDt: heat3d.StableDt,
	},
}

// Names returns the registered model names in canonical order.
func Names() []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.name
	}
	return out
}

// modelIndex resolves a model name.
func modelIndex(name string) (int, error) {
	for i, m := range models {
		if m.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("physics: unknown model %q (known: %s)", name, strings.Join(Names(), " "))
}

// ModelForTask maps a traced task name back to the model that emitted
// it ("heat.advance" -> "heat3d"), or "" if no model matches. Workload
// trace replay uses it to recover the physics mix of a recorded run.
func ModelForTask(taskName string) string {
	for _, m := range models {
		if strings.HasPrefix(taskName, m.taskPrefix) {
			return m.name
		}
	}
	return ""
}

// Share is one weighted component of a mixture.
type Share struct {
	Name   string
	Weight float64
}

// Selection is a parsed physics selector: a single model (one share) or
// a seeded per-patch mixture. The zero value is not valid; use Parse or
// Default.
type Selection struct {
	Shares []Share // canonical registry order, weights > 0
	Seed   uint64  // per-patch assignment stream (mixtures)
}

// Default returns the historical single-physics selection (Burgers).
func Default() Selection {
	return Selection{Shares: []Share{{Name: "burgers", Weight: 1}}}
}

// Parse parses a physics selector. The empty string is the Burgers
// default.
func Parse(s string) (Selection, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Default(), nil
	}
	if !strings.HasPrefix(s, "mix:") {
		if _, err := modelIndex(s); err != nil {
			return Selection{}, err
		}
		return Selection{Shares: []Share{{Name: s, Weight: 1}}}, nil
	}
	weights := make(map[string]float64)
	var seed uint64
	for _, tok := range strings.Split(strings.TrimPrefix(s, "mix:"), ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return Selection{}, fmt.Errorf("physics: mixture token %q is not name=weight", tok)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if k == "seed" {
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Selection{}, fmt.Errorf("physics: bad mixture seed %q: %v", v, err)
			}
			seed = u
			continue
		}
		if _, err := modelIndex(k); err != nil {
			return Selection{}, err
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return Selection{}, fmt.Errorf("physics: bad weight %q for model %s", v, k)
		}
		weights[k] += w
	}
	return FromWeights(weights, seed)
}

// FromWeights builds a selection from a name->weight map (a workload
// phase's physics mix) and an assignment seed. Zero-weight entries are
// dropped; a single surviving model collapses to that model (seedless).
func FromWeights(weights map[string]float64, seed uint64) (Selection, error) {
	for name, w := range weights {
		if _, err := modelIndex(name); err != nil {
			return Selection{}, err
		}
		if w < 0 {
			return Selection{}, fmt.Errorf("physics: negative weight %g for model %s", w, name)
		}
	}
	sel := Selection{Seed: seed}
	for _, m := range models {
		if w := weights[m.name]; w > 0 {
			sel.Shares = append(sel.Shares, Share{Name: m.name, Weight: w})
		}
	}
	if len(sel.Shares) == 0 {
		return Selection{}, fmt.Errorf("physics: mixture has no model with positive weight")
	}
	if len(sel.Shares) == 1 {
		// A one-model "mixture" is that model; the seed is meaningless.
		return Selection{Shares: sel.Shares}, nil
	}
	return sel, nil
}

// Canonical renders the selection in its canonical selector form:
// shares in registry order, seed last. Parse(sel.Canonical()) round-
// trips, and equal-behaviour selections render identically — the form
// workload generation puts into Spec.Physics so content hashes are
// stable.
func (sel Selection) Canonical() string {
	if len(sel.Shares) == 1 {
		return sel.Shares[0].Name
	}
	parts := make([]string, 0, len(sel.Shares)+1)
	for _, sh := range sel.Shares {
		parts = append(parts, fmt.Sprintf("%s=%g", sh.Name, sh.Weight))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", sel.Seed))
	return "mix:" + strings.Join(parts, ",")
}

// Mixed reports whether more than one model participates.
func (sel Selection) Mixed() bool { return len(sel.Shares) > 1 }

// Assign maps every patch ID to the index of its share. The draw is a
// stateless function of (seed, patch ID): stable under any evaluation
// order, rank count or shard count.
func (sel Selection) Assign(nPatches int) []int {
	out := make([]int, nPatches)
	if len(sel.Shares) <= 1 {
		return out
	}
	var total float64
	for _, sh := range sel.Shares {
		total += sh.Weight
	}
	for p := range out {
		u := rng.Unit(rng.SubSeed(sel.Seed, assignStream, p)) * total
		cum := 0.0
		for i, sh := range sel.Shares {
			cum += sh.Weight
			out[p] = i
			if u < cum {
				break
			}
		}
	}
	return out
}

// NewProblem builds the core.Problem the selection denotes on a global
// grid of cells partitioned into layout patches. A single-model
// selection builds exactly that model's historical problem (no patch
// predicates); a mixture assigns each patch one model, restricts every
// model's task to its own patches and steps all models with the
// smallest participating stable Dt so every region is stable.
func (sel Selection) NewProblem(cells, layout grid.IVec) (core.Problem, error) {
	if len(sel.Shares) == 0 {
		return core.Problem{}, fmt.Errorf("physics: empty selection")
	}
	dx := 1.0 / float64(cells.X)
	dy := 1.0 / float64(cells.Y)
	dz := 1.0 / float64(cells.Z)
	prob := core.Problem{
		Initial:        map[*taskgraph.Label]func(x, y, z float64) float64{},
		InitialProfile: map[*taskgraph.Label]func(axis int, s float64) float64{},
	}
	nPatches := layout.X * layout.Y * layout.Z
	assign := sel.Assign(nPatches)
	for i, sh := range sel.Shares {
		mi, err := modelIndex(sh.Name)
		if err != nil {
			return core.Problem{}, err
		}
		m := models[mi]
		task, label, init := m.build()
		if sel.Mixed() {
			i := i // capture the share index, not the loop variable
			task.Patches = func(patchID int) bool { return assign[patchID] == i }
		}
		prob.Tasks = append(prob.Tasks, task)
		prob.Initial[label] = init
		if m.initProfile != nil {
			prob.InitialProfile[label] = m.initProfile
		}
		if dt := m.stableDt(dx, dy, dz); prob.Dt == 0 || dt < prob.Dt {
			prob.Dt = dt
		}
	}
	return prob, nil
}
