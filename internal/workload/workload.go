// Package workload is the declarative scenario layer over the runner:
// seeded JSON specs describing how jobs arrive over virtual time —
// constant trickle, multi-period (diurnal) modulation, bursts, AMR
// "regrid storms" that re-tile the patch layout wave by wave — with a
// per-phase physics mix, expanded deterministically into a schedule of
// runner Specs. The same spec and seed always expand to the byte-
// identical schedule, on any machine, with any worker or shard count:
// every random choice draws from a per-phase splitmix64 substream
// (internal/rng) keyed by the scenario seed, never from global state.
//
// The inverse direction is trace replay (replay.go): a recorded run's
// event timeline folds back into a synthetic Scenario whose phases
// mirror the observed activity, so a production trace can be re-run as
// a workload through the same generator path.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sunuintah/internal/physics"
	"sunuintah/internal/rng"
	"sunuintah/internal/runner"
)

// rng stream indices under the scenario seed. Lanes are phase indices
// (arrival) or phase*maxBursts+burst (storm mixture reseeds).
const (
	streamArrival = 1
	streamMix     = 2
	// maxBursts bounds the bursts of one phase so (phase, burst) lanes
	// never collide across phases.
	maxBursts = 4096
)

// Arrival patterns.
const (
	PatternConstant = "constant"
	PatternPeriodic = "periodic"
	PatternBurst    = "burst"
	PatternStorm    = "storm"
)

// Template is the job template a phase stamps out: the subset of
// runner.Spec a scenario controls. Zero-valued fields of a phase
// template inherit from the scenario base.
type Template struct {
	Problem string `json:"problem,omitempty"`
	Cells   string `json:"cells,omitempty"`
	Layout  string `json:"layout,omitempty"`
	CGs     int    `json:"cgs,omitempty"`
	Variant string `json:"variant,omitempty"`
	Steps   int    `json:"steps,omitempty"`
	Physics string `json:"physics,omitempty"`
}

// merged overlays o's non-zero fields onto t.
func (t Template) merged(o *Template) Template {
	if o == nil {
		return t
	}
	if o.Problem != "" {
		t.Problem = o.Problem
	}
	if o.Cells != "" {
		t.Cells = o.Cells
	}
	if o.Layout != "" {
		t.Layout = o.Layout
	}
	if o.CGs != 0 {
		t.CGs = o.CGs
	}
	if o.Variant != "" {
		t.Variant = o.Variant
	}
	if o.Steps != 0 {
		t.Steps = o.Steps
	}
	if o.Physics != "" {
		t.Physics = o.Physics
	}
	return t
}

// spec converts the template into a runner Spec.
func (t Template) spec() runner.Spec {
	return runner.Spec{
		Problem: t.Problem,
		Cells:   t.Cells,
		Layout:  t.Layout,
		CGs:     t.CGs,
		Variant: t.Variant,
		Steps:   t.Steps,
		Physics: t.Physics,
	}
}

// Period is one sinusoidal component of a periodic arrival rate.
type Period struct {
	// Seconds is the period length in virtual seconds.
	Seconds float64 `json:"seconds"`
	// Amplitude modulates the base rate by this fraction (0.8 swings
	// the rate between 0.2x and 1.8x).
	Amplitude float64 `json:"amplitude"`
	// Phase offsets the component in radians.
	Phase float64 `json:"phase,omitempty"`
}

// Arrival describes how jobs arrive within one phase.
type Arrival struct {
	// Pattern is one of constant, periodic, burst, storm.
	Pattern string `json:"pattern"`
	// Rate is the mean arrival rate in jobs per virtual second
	// (constant and periodic patterns).
	Rate float64 `json:"rate,omitempty"`
	// Periods are the sinusoidal components of a periodic rate; the
	// effective rate is Rate*(1 + sum_i A_i sin(2 pi t/P_i + phi_i)),
	// clamped at zero.
	Periods []Period `json:"periods,omitempty"`
	// Burst is the number of jobs arriving together in each wave of a
	// burst or storm pattern (default 4); Every is the wave spacing in
	// virtual seconds.
	Burst int     `json:"burst,omitempty"`
	Every float64 `json:"every,omitempty"`
	// Layouts is the patch-layout cycle of a storm: wave k arrives with
	// layout k mod len(Layouts), modelling the task-graph recompilation
	// churn after each AMR regrid.
	Layouts []string `json:"layouts,omitempty"`
}

// Phase is one time-bounded segment of a scenario.
type Phase struct {
	Name     string  `json:"name"`
	Duration float64 `json:"duration"` // virtual seconds
	Arrival  Arrival `json:"arrival"`
	// Mix is a physics name->weight map applied to this phase's jobs;
	// the per-patch assignment seed derives from the scenario seed and
	// the phase index (and, in storms, the wave index), so each storm
	// wave re-partitions physics over the new layout. Empty keeps the
	// template's physics.
	Mix map[string]float64 `json:"mix,omitempty"`
	// Jobs overrides base template fields for this phase.
	Jobs *Template `json:"jobs,omitempty"`
}

// Scenario is a declarative workload spec.
type Scenario struct {
	Name string `json:"name"`
	// Seed selects every random choice of the expansion. Same scenario
	// + same seed = byte-identical schedule.
	Seed   uint64   `json:"seed"`
	Base   Template `json:"base"`
	Phases []Phase  `json:"phases"`
}

// Job is one expanded unit of work: a Spec submitted at a virtual time.
type Job struct {
	// At is the virtual arrival time from scenario start.
	At float64 `json:"at"`
	// Phase names the phase that emitted the job.
	Phase string      `json:"phase"`
	Spec  runner.Spec `json:"spec"`
}

// Parse decodes and validates a scenario from JSON. Unknown fields are
// rejected so typos surface instead of silently defaulting.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// validTriple checks an "AxBxC" size string without importing the
// experiments package (which imports workload).
func validTriple(s string) bool {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return false
	}
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			return false
		}
	}
	return true
}

// Validate checks the scenario's structure, returning the first problem
// found with enough context to fix it. Spec-level names (variants,
// problem names) are validated later by the executing layer.
func (sc *Scenario) Validate() error {
	if len(sc.Phases) == 0 {
		return fmt.Errorf("workload: scenario %q has no phases", sc.Name)
	}
	for i, ph := range sc.Phases {
		where := fmt.Sprintf("workload: phase %d (%q)", i, ph.Name)
		if ph.Duration <= 0 {
			return fmt.Errorf("%s: duration must be positive, got %g", where, ph.Duration)
		}
		a := ph.Arrival
		switch a.Pattern {
		case PatternConstant:
			if a.Rate < 0 {
				return fmt.Errorf("%s: rate must be >= 0, got %g", where, a.Rate)
			}
		case PatternPeriodic:
			if a.Rate <= 0 {
				return fmt.Errorf("%s: periodic arrival needs a positive base rate, got %g", where, a.Rate)
			}
			if len(a.Periods) == 0 {
				return fmt.Errorf("%s: periodic arrival needs at least one period", where)
			}
			for j, p := range a.Periods {
				if p.Seconds <= 0 {
					return fmt.Errorf("%s: period %d needs positive seconds, got %g", where, j, p.Seconds)
				}
				if p.Amplitude < 0 {
					return fmt.Errorf("%s: period %d amplitude must be >= 0, got %g", where, j, p.Amplitude)
				}
			}
		case PatternBurst, PatternStorm:
			if a.Every <= 0 {
				return fmt.Errorf("%s: %s arrival needs a positive wave spacing (every), got %g", where, a.Pattern, a.Every)
			}
			if a.Burst < 0 {
				return fmt.Errorf("%s: burst size must be >= 0, got %d", where, a.Burst)
			}
			// Compared as floats: a huge duration over a tiny spacing is
			// +Inf, whose int conversion wraps negative.
			if ph.Duration/a.Every >= maxBursts {
				return fmt.Errorf("%s: more than %d waves", where, maxBursts)
			}
			if a.Pattern == PatternStorm {
				if len(a.Layouts) == 0 {
					return fmt.Errorf("%s: storm arrival needs a layout cycle (layouts)", where)
				}
				for _, l := range a.Layouts {
					if !validTriple(l) {
						return fmt.Errorf("%s: bad storm layout %q (want AxBxC)", where, l)
					}
				}
			} else if len(a.Layouts) != 0 {
				return fmt.Errorf("%s: layouts only apply to the storm pattern", where)
			}
		default:
			return fmt.Errorf("%s: unknown arrival pattern %q (want %s|%s|%s|%s)",
				where, a.Pattern, PatternConstant, PatternPeriodic, PatternBurst, PatternStorm)
		}
		if len(ph.Mix) > 0 {
			if _, err := physics.FromWeights(ph.Mix, 0); err != nil {
				return fmt.Errorf("%s: %v", where, err)
			}
		}
		tp := sc.Base.merged(ph.Jobs)
		if tp.Problem == "" && tp.Cells == "" {
			return fmt.Errorf("%s: job template needs a problem name or custom cells", where)
		}
		if tp.Cells != "" && !validTriple(tp.Cells) {
			return fmt.Errorf("%s: bad cells %q (want AxBxC)", where, tp.Cells)
		}
		if tp.Layout != "" && !validTriple(tp.Layout) {
			return fmt.Errorf("%s: bad layout %q (want AxBxC)", where, tp.Layout)
		}
		if tp.CGs <= 0 {
			return fmt.Errorf("%s: job template needs a positive CG count", where)
		}
		if tp.Variant == "" {
			return fmt.Errorf("%s: job template needs a variant", where)
		}
		if tp.Steps <= 0 {
			return fmt.Errorf("%s: job template needs positive steps", where)
		}
		if tp.Physics != "" {
			if _, err := physics.Parse(tp.Physics); err != nil {
				return fmt.Errorf("%s: %v", where, err)
			}
		}
	}
	return nil
}

// Canonical renders the scenario as compact canonical JSON: fixed field
// order (struct order), sorted mix keys (encoding/json sorts map keys).
// Two scenarios with identical behaviour render identically — the form
// golden tests pin.
func (sc *Scenario) Canonical() string {
	b, err := json.Marshal(sc)
	if err != nil {
		// A Scenario is marshalable by construction; this is unreachable
		// short of memory corruption.
		panic(err)
	}
	return string(b)
}

// rate returns the instantaneous arrival rate of a at time t (seconds
// from phase start), clamped at zero.
func (a Arrival) rate(t float64) float64 {
	r := a.Rate
	for _, p := range a.Periods {
		r += a.Rate * p.Amplitude * math.Sin(2*math.Pi*t/p.Seconds+p.Phase)
	}
	if r < 0 {
		return 0
	}
	return r
}

// maxRate bounds the instantaneous rate of a from above.
func (a Arrival) maxRate() float64 {
	r := a.Rate
	for _, p := range a.Periods {
		r += a.Rate * p.Amplitude
	}
	return r
}

// burstSize returns the jobs per wave (default 4).
func (a Arrival) burstSize() int {
	if a.Burst > 0 {
		return a.Burst
	}
	return 4
}

// Expand turns the scenario into its deterministic job schedule, sorted
// by arrival time (ties keep emission order). The expansion is a pure
// function of the scenario (including its seed): thinning draws come
// from the per-phase arrival substream, physics-mix assignment seeds
// from the mix substream, so the schedule is byte-identical however and
// wherever it is expanded.
func (sc *Scenario) Expand() ([]Job, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var jobs []Job
	phaseStart := 0.0
	for pi, ph := range sc.Phases {
		tp := sc.Base.merged(ph.Jobs)
		a := ph.Arrival

		// mixPhysics resolves the template physics for a wave: phase mix
		// (reseeded per storm wave) beats template physics.
		mixPhysics := func(wave int) (string, error) {
			if len(ph.Mix) == 0 {
				return tp.Physics, nil
			}
			seed := rng.SubSeed(sc.Seed, streamMix, pi*maxBursts+wave)
			sel, err := physics.FromWeights(ph.Mix, seed)
			if err != nil {
				return "", err
			}
			return sel.Canonical(), nil
		}

		emit := func(at float64, layout, phys string) {
			t := tp
			if layout != "" {
				t.Layout = layout
			}
			t.Physics = phys
			jobs = append(jobs, Job{At: at, Phase: ph.Name, Spec: t.spec()})
		}

		switch a.Pattern {
		case PatternConstant, PatternPeriodic:
			phys, err := mixPhysics(0)
			if err != nil {
				return nil, err
			}
			λmax := a.maxRate()
			if λmax > 0 {
				// Thinned slot sampling: slots narrow enough that the
				// per-slot expectation stays below one half, one emission
				// draw plus one jitter draw consumed per slot regardless
				// of outcome (stream position independent of results).
				w := 0.5 / λmax
				if w > ph.Duration {
					w = ph.Duration
				}
				stream := rng.NewSub(sc.Seed, streamArrival, pi)
				nSlots := int(math.Ceil(ph.Duration / w))
				for i := 0; i < nSlots; i++ {
					slotStart := float64(i) * w
					slotW := math.Min(w, ph.Duration-slotStart)
					if slotW <= 0 {
						break
					}
					e := a.rate(slotStart+slotW/2) * slotW
					u, jitter := stream.Uniform(), stream.Uniform()
					if u < e {
						emit(phaseStart+slotStart+jitter*slotW, "", phys)
					}
				}
			}
		case PatternBurst, PatternStorm:
			n := a.burstSize()
			wave := 0
			for tb := 0.0; tb < ph.Duration; tb += a.Every {
				layout := ""
				if a.Pattern == PatternStorm {
					layout = a.Layouts[wave%len(a.Layouts)]
				}
				phys, err := mixPhysics(wave)
				if err != nil {
					return nil, err
				}
				for j := 0; j < n; j++ {
					emit(phaseStart+tb, layout, phys)
				}
				wave++
			}
		}
		phaseStart += ph.Duration
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].At < jobs[j].At })
	return jobs, nil
}

// DefaultScenario is the reference mixed-physics workload: a steady
// warm-up, a two-period diurnal phase, and a regrid storm cycling three
// patch layouts with a reseeded three-way physics mix per wave. Small
// enough to run as a CI artifact, rich enough to exercise every arrival
// pattern the package supports except plain burst.
func DefaultScenario() *Scenario {
	return &Scenario{
		Name: "mixed-default",
		Seed: 1,
		Base: Template{
			Cells:   "16x16x32",
			Layout:  "2x2x4",
			CGs:     4,
			Variant: "acc.async",
			Steps:   3,
			Physics: "mix:burgers=2,advection=1,heat3d=1,seed=1",
		},
		Phases: []Phase{
			{
				Name:     "steady",
				Duration: 4,
				Arrival:  Arrival{Pattern: PatternConstant, Rate: 1.5},
			},
			{
				Name:     "diurnal",
				Duration: 8,
				Arrival: Arrival{
					Pattern: PatternPeriodic,
					Rate:    2,
					Periods: []Period{
						{Seconds: 4, Amplitude: 0.8},
						{Seconds: 1.5, Amplitude: 0.3, Phase: 1},
					},
				},
			},
			{
				Name:     "regrid-storm",
				Duration: 4,
				Arrival: Arrival{
					Pattern: PatternStorm,
					Burst:   3,
					Every:   1.5,
					Layouts: []string{"2x2x4", "4x4x2", "2x2x2"},
				},
				Mix: map[string]float64{"burgers": 1, "advection": 1, "heat3d": 1},
			},
		},
	}
}
