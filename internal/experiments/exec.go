package experiments

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/obs"
	"sunuintah/internal/perf"
	"sunuintah/internal/physics"
	"sunuintah/internal/runner"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/sw26010"
)

// SpecFor builds the runner.Spec of one experimental cell under the given
// sweep options and noise seed (a sweep passes 0 and lets runner.Repeats
// assign its best-of-k seeds). The Spec is self-contained: Exec needs
// nothing else to reproduce the run.
func SpecFor(prob ProblemSpec, cgs int, v Variant, opt Options, seed uint64) runner.Spec {
	steps := opt.Steps
	if steps <= 0 {
		steps = Steps
	}
	spec := runner.Spec{
		Problem:     prob.Name,
		CGs:         cgs,
		Variant:     v.Name,
		Steps:       steps,
		AsyncDMA:    opt.AsyncDMA,
		TilePacking: opt.TilePacking,
		CPEGroups:   opt.CPEGroups,
	}
	if opt.TileSize != (grid.IVec{}) {
		spec.TileSize = opt.TileSize.String()
	}
	if opt.Noise > 0 {
		spec.Noise = opt.Noise
		spec.Seed = seed
	}
	if !opt.Faults.Zero() {
		spec.Faults = opt.Faults
	}
	return spec
}

// ParseIVec parses an "XxYxZ" size string.
func ParseIVec(s string) (grid.IVec, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return grid.IVec{}, fmt.Errorf("experiments: want AxBxC, got %q", s)
	}
	var v [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			return grid.IVec{}, fmt.Errorf("experiments: bad component %q in %q", p, s)
		}
		v[i] = n
	}
	return grid.IV(v[0], v[1], v[2]), nil
}

// ValidateSpec checks a spec's names and shape without building the
// simulation, so services can reject bad requests up front.
func ValidateSpec(spec runner.Spec) error {
	_, err := parseSpec(spec)
	return err
}

// specShape is a validated spec's parsed names and sizes.
type specShape struct {
	variant       Variant
	cells, layout grid.IVec
	tileSize      grid.IVec // zero: the scheduler default
	physics       physics.Selection
}

// parseSpec holds every spec rule: ValidateSpec reports its error and
// specConfig builds from its result.
func parseSpec(spec runner.Spec) (specShape, error) {
	var sh specShape
	var err error
	if sh.variant, err = VariantByName(spec.Variant); err != nil {
		return sh, err
	}
	var prob ProblemSpec
	switch {
	case spec.Problem != "":
		if prob, err = ProblemByName(spec.Problem); err != nil {
			return sh, err
		}
		sh.layout = PatchCounts
	case spec.Cells != "":
		if sh.cells, err = ParseIVec(spec.Cells); err != nil {
			return sh, err
		}
		sh.layout = grid.IV(1, 1, 1)
	default:
		return sh, errors.New("experiments: spec needs a problem name or custom cells")
	}
	if spec.Layout != "" {
		if sh.layout, err = ParseIVec(spec.Layout); err != nil {
			return sh, err
		}
	}
	if spec.Problem != "" {
		sh.cells = prob.PatchSize.Mul(sh.layout)
	}
	if spec.TileSize != "" {
		if sh.tileSize, err = ParseIVec(spec.TileSize); err != nil {
			return sh, err
		}
	}
	if spec.CGs <= 0 {
		return sh, fmt.Errorf("experiments: spec needs a positive CG count, got %d", spec.CGs)
	}
	if spec.Steps <= 0 {
		return sh, fmt.Errorf("experiments: spec needs positive steps, got %d", spec.Steps)
	}
	if err := spec.Faults.Validate(); err != nil {
		return sh, err
	}
	sh.physics, err = physics.Parse(spec.Physics)
	return sh, err
}

// SpecConfig resolves a Spec into the core configuration and problem it
// executes. Exec composes it with progress publishing and resilient
// running; it is exported so harnesses (bench's per-layer probes and its
// observability overhead metric) can run the same case with
// hand-controlled instrumentation knobs that Spec does not expose.
func SpecConfig(spec runner.Spec) (core.Config, core.Problem, error) {
	return specConfig(spec)
}

// specConfig resolves a Spec into the configuration and problem of its
// simulation.
func specConfig(spec runner.Spec) (core.Config, core.Problem, error) {
	sh, err := parseSpec(spec)
	if err != nil {
		return core.Config{}, core.Problem{}, err
	}
	problem, err := sh.physics.NewProblem(sh.cells, sh.layout)
	if err != nil {
		return core.Config{}, core.Problem{}, err
	}
	cfg := core.Config{
		Cells:       sh.cells,
		PatchCounts: sh.layout,
		NumCGs:      spec.CGs,
		Scheduler: scheduler.Config{
			Mode:        sh.variant.Mode,
			SIMD:        sh.variant.SIMD,
			Functional:  spec.Functional,
			AsyncDMA:    spec.AsyncDMA,
			TilePacking: spec.TilePacking,
			CPEGroups:   spec.CPEGroups,
			TileSize:    sh.tileSize,
		},
	}
	if spec.Noise > 0 {
		params := perf.DefaultParams()
		params.NoiseFraction = spec.Noise
		params.NoiseSeed = spec.Seed
		cfg.Params = &params
	}
	if !spec.Faults.Zero() {
		cfg.Faults = spec.Faults
	}
	if spec.Report || spec.Trace {
		cfg.Obs = &obs.Options{Trace: spec.Trace}
	}
	return cfg, problem, nil
}

// progress is the process-wide live-progress bus. Executions publish one
// event per rank-step under the spec's content hash as the topic, so any
// holder of the same spec (sunserver's SSE handler, a test) can follow a
// run without threading a sink through the pool — Submit carries no
// per-job context. Publishing to a topic nobody subscribed to is a cheap
// no-op, so Exec publishes unconditionally.
var progress = obs.NewProgressBus()

// Progress returns the process-wide job progress bus. Topics are
// runner.Spec content hashes (Spec.Hash), matching what Exec publishes.
func Progress() *obs.ProgressBus { return progress }

// Exec is the runner.ExecFunc for experimental cells: it resolves the
// spec, builds the simulation and runs it. Out-of-memory failures (the
// paper's Table III crashes) become infeasible results so the cache
// remembers them; every other failure is an error.
func Exec(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	run := func() (*core.Result, error) {
		cfg, problem, err := specConfig(spec)
		if err != nil {
			return nil, err
		}
		topic := spec.Hash()
		cfg.Progress = func(ev obs.ProgressEvent) { progress.Publish(topic, ev) }
		// Fault-plan specs run resiliently: a CG crash tears the run down
		// and checkpoint/restart carries it to completion. With no plan
		// RunResilient is exactly NewSimulation + Run.
		return core.RunResilient(cfg, problem, spec.Steps)
	}
	res, err := run()
	if err != nil {
		var oom *sw26010.ErrOutOfMemory
		if errors.As(err, &oom) {
			return &runner.Result{Feasible: false}, nil
		}
		return nil, fmt.Errorf("spec %s: %w", spec, err)
	}
	return &runner.Result{Feasible: true, Sim: res}, nil
}

// NewPool builds a runner pool wired to Exec. workers <= 0 means
// GOMAXPROCS; cache and onEvent may be nil.
func NewPool(workers int, cache runner.Cache, onEvent func(runner.Event)) *Pool {
	p, err := runner.New(runner.Config{
		Workers: workers,
		Exec:    Exec,
		Cache:   cache,
		OnEvent: onEvent,
	})
	if err != nil {
		panic(err) // unreachable: Exec is always non-nil
	}
	return p
}

// Pool is re-exported so sweep construction sites read naturally.
type Pool = runner.Pool
