// Package faults is the deterministic fault-injection plane of the
// simulated Sunway substrate. A Plan declares seeded probabilities for the
// failure modes the paper's production runs contend with — lost, delayed,
// duplicated messages and degraded links on the interconnect; stalled or
// straggling CPE gangs under athread; whole-core-group crashes — and an
// Injector turns the plan into reproducible per-event draws.
//
// Determinism is the contract: every draw comes from a per-category,
// per-rank splitmix64 stream derived from the plan's seed, so an identical
// seed and plan yields an identical fault history (and therefore
// byte-identical results) regardless of how many worker goroutines execute
// sibling runs — and, because each rank owns its streams, regardless of how
// the sharded engine partitions ranks into shards and orders their windows.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sunuintah/internal/rng"
)

// Plan declares what to inject: a seed, one probability per failure mode
// and an optional forced crash. The zero value injects nothing; rates are
// probabilities in [0,1] drawn per event (per message transmission, per
// offload, per run for crashes). How hard a fault strikes and how the
// runtime recovers are fixed (the constants below), not part of a plan.
type Plan struct {
	// Seed selects the fault streams. Identical seed + plan => identical
	// fault history.
	Seed uint64 `json:"seed,omitempty"`

	// Interconnect faults, drawn per message transmission.
	Drop    float64 `json:"drop,omitempty"`    // message lost on the wire
	Dup     float64 `json:"dup,omitempty"`     // message delivered twice
	Delay   float64 `json:"delay,omitempty"`   // wire time multiplied by DelayFactor
	Degrade float64 `json:"degrade,omitempty"` // wire time multiplied by DegradeFactor

	// CPE-side faults, drawn per offload.
	Stall    float64 `json:"stall,omitempty"`    // gang hangs; completion flag never fills
	Straggle float64 `json:"straggle,omitempty"` // gang finishes StraggleFactor slower

	// Crash is the probability that a whole core group fails during a
	// resilient run (core.RunResilient); the failing rank, step and
	// intra-step position are drawn from the crash stream. CrashAtStep > 0
	// forces exactly one deterministic crash of CrashRank at that 1-based
	// step instead.
	Crash       float64 `json:"crash,omitempty"`
	CrashAtStep int     `json:"crashAtStep,omitempty"`
	CrashRank   int     `json:"crashRank,omitempty"`
}

// The fault magnitudes and the recovery policy. Every plan shares them;
// Canonical prints them where a plan once carried them as keys.
const (
	// DelayFactor and DegradeFactor multiply the wire time of a delayed and
	// of a degraded transmission; StraggleFactor a straggling gang's
	// compute time.
	DelayFactor    float64 = 4
	DegradeFactor  float64 = 3
	StraggleFactor float64 = 3

	// MaxRestarts is how often core.RunResilient restarts a crashed run
	// before it is lost. It checkpoints every CheckpointEvery steps, and a
	// checkpoint and a restart add CheckpointCost and RestartCost virtual
	// seconds to the run's wall clock.
	MaxRestarts     = 4
	CheckpointEvery = 2
	CheckpointCost  = 2e-3
	RestartCost     = 20e-3

	// An offload's deadline is DeadlineFactor times its healthy estimate.
	// The scheduler re-offloads a timed-out kernel MaxRetries times before
	// running it on the MPE, and takes a gang out of rotation after
	// UnhealthyAfter consecutive timeouts.
	DeadlineFactor = 4
	MaxRetries     = 2
	UnhealthyAfter = 3
)

// Zero reports whether the plan injects nothing (all rates zero and no
// forced crash). A nil or zero plan leaves every fault path disabled and
// runs byte-identical to a build without the fault plane.
func (p *Plan) Zero() bool {
	if p == nil {
		return true
	}
	return p.Drop == 0 && p.Dup == 0 && p.Delay == 0 && p.Degrade == 0 &&
		p.Stall == 0 && p.Straggle == 0 && p.Crash == 0 && p.CrashAtStep == 0
}

// Validate reports the first value that is not finite and non-negative:
// the rule Parse applies to every key and a plan decoded from JSON must
// meet too. A nil plan is valid.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, v := range []struct {
		key string
		val float64
	}{
		{"drop", p.Drop}, {"dup", p.Dup}, {"delay", p.Delay}, {"degrade", p.Degrade},
		{"stall", p.Stall}, {"straggle", p.Straggle}, {"crash", p.Crash},
		{"crash-at", float64(p.CrashAtStep)}, {"crash-rank", float64(p.CrashRank)},
	} {
		if !(v.val >= 0) || math.IsInf(v.val, 1) {
			return fmt.Errorf("faults: %s is %g, want a finite non-negative value", v.key, v.val)
		}
	}
	return nil
}

// Canonical renders the plan as a stable key string for content hashing.
// Field order is fixed, and the fixed magnitudes and recovery policy are
// printed where plans once set them, so the hash of every stored spec
// stays what it was when they were keys. Parse does not read those keys.
func (p *Plan) Canonical() string {
	return fmt.Sprintf("seed=%d,drop=%g,dup=%g,delay=%g,delay-factor=%g,degrade=%g,degrade-factor=%g,stall=%g,straggle=%g,straggle-factor=%g,crash=%g,crash-at=%d,crash-rank=%d,max-restarts=%d,ckpt-every=%d,ckpt-cost=%g,restart-cost=%g,deadline-factor=%d,max-retries=%d,unhealthy-after=%d",
		p.Seed, p.Drop, p.Dup, p.Delay, DelayFactor, p.Degrade, DegradeFactor,
		p.Stall, p.Straggle, StraggleFactor, p.Crash, p.CrashAtStep, p.CrashRank,
		MaxRestarts, CheckpointEvery, CheckpointCost, RestartCost,
		DeadlineFactor, MaxRetries, UnhealthyAfter)
}

// Scaled returns a copy with every fault rate multiplied by f (clamped to
// [0,1]); the seed and the forced crash are unchanged. Scaled(0) is a zero
// plan. Used by the chaos artifact's overhead-vs-rate sweep.
func (p *Plan) Scaled(f float64) *Plan {
	n := *p
	clamp := func(r float64) float64 {
		r *= f
		if r < 0 {
			return 0
		}
		if r > 1 {
			return 1
		}
		return r
	}
	n.Drop = clamp(p.Drop)
	n.Dup = clamp(p.Dup)
	n.Delay = clamp(p.Delay)
	n.Degrade = clamp(p.Degrade)
	n.Stall = clamp(p.Stall)
	n.Straggle = clamp(p.Straggle)
	n.Crash = clamp(p.Crash)
	return &n
}

// Default is the chaos evaluation's reference plan: a few percent of every
// fault mode plus a substantial crash probability, the default fault rate
// of the chaos artifact and the CLIs' "-faults default".
func Default() *Plan {
	return &Plan{
		Seed:     1,
		Drop:     0.02,
		Dup:      0.01,
		Delay:    0.05,
		Degrade:  0.05,
		Stall:    0.02,
		Straggle: 0.05,
		Crash:    0.25,
	}
}

// Parse builds a plan from a comma-separated spec like
//
//	"default,seed=7,scale=2"  or  "drop=0.1,stall=0.05,crash=1"
//
// Tokens are applied left to right: "default" loads Default(), "off"/""
// yields a nil plan, "scale=F" multiplies the rates accumulated so far, and
// "key=value" sets one Plan field. Keys: seed, drop, dup, delay, degrade,
// stall, straggle, crash, crash-at, crash-rank. Every value must pass
// Validate.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return nil, nil
	}
	p := &Plan{}
	setFloat := map[string]*float64{
		"drop": &p.Drop, "dup": &p.Dup, "delay": &p.Delay, "degrade": &p.Degrade,
		"stall": &p.Stall, "straggle": &p.Straggle, "crash": &p.Crash,
	}
	setInt := map[string]*int{"crash-at": &p.CrashAtStep, "crash-rank": &p.CrashRank}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "default" {
			*p = *Default()
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("faults: token %q is not key=value (or \"default\")", tok)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		var err error
		switch fp, ip := setFloat[k], setInt[k]; {
		case k == "seed":
			if p.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
		case k == "scale":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0) || math.IsInf(f, 1) {
				return nil, fmt.Errorf("faults: bad scale %q", v)
			}
			*p = *p.Scaled(f)
		case fp != nil:
			if *fp, err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("faults: bad value %q for %s", v, k)
			}
		case ip != nil:
			if *ip, err = strconv.Atoi(v); err != nil {
				return nil, fmt.Errorf("faults: bad value %q for %s", v, k)
			}
		default:
			return nil, fmt.Errorf("faults: unknown key %q (known: %s)", k, knownKeys(setFloat, setInt))
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	if p.Zero() {
		return nil, nil
	}
	return p, nil
}

func knownKeys(f map[string]*float64, i map[string]*int) string {
	keys := []string{"seed", "scale"}
	for k := range f {
		keys = append(keys, k)
	}
	for k := range i {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// Counts tallies injected faults, one bump per injected event. All fields
// marshal; a fault-free faulty-plan run reports explicit zeros.
type Counts struct {
	MsgsDropped    int64 `json:"msgsDropped"`
	MsgsDuplicated int64 `json:"msgsDuplicated"`
	MsgsDelayed    int64 `json:"msgsDelayed"`
	MsgsDegraded   int64 `json:"msgsDegraded"`
	OffloadStalls  int64 `json:"offloadStalls"`
	Stragglers     int64 `json:"stragglers"`
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.MsgsDropped += other.MsgsDropped
	c.MsgsDuplicated += other.MsgsDuplicated
	c.MsgsDelayed += other.MsgsDelayed
	c.MsgsDegraded += other.MsgsDegraded
	c.OffloadStalls += other.OffloadStalls
	c.Stragglers += other.Stragglers
}

// Stream indices: each fault category draws from its own splitmix64
// sequence so adding draws in one category never perturbs another.
const (
	streamMsg = iota
	streamOffload
	streamCrash
	numStreams
)

// Injector performs the seeded draws for one simulation. The message and
// offload categories keep one stream per rank, created on first use: a
// rank's draw sequence depends only on its own fault sites, in their
// engine-serialised order, never on how other ranks' draws interleave —
// so the sharded engine, which runs ranks' windows in shard order rather
// than virtual-time order, draws the same faults as the serial one. An
// injector belongs to one simulation and is never used from two goroutines
// at once. The crash stream stays global (a crash point is drawn once per
// run, outside engine execution).
type Injector struct {
	plan       Plan
	crashState *rng.Stream

	msgStates map[int]*rng.Stream
	offStates map[int]*rng.Stream

	// Counts tallies injected faults as they are drawn.
	Counts Counts
}

// NewInjector builds an injector for the plan, or nil when the plan is nil
// or zero — callers gate every fault path on a non-nil injector, so a zero
// plan leaves the substrate bit-identical to the fault-free build.
func NewInjector(p *Plan) *Injector {
	if p.Zero() {
		return nil
	}
	inj := &Injector{
		plan:      *p,
		msgStates: make(map[int]*rng.Stream),
		offStates: make(map[int]*rng.Stream),
	}
	inj.crashState = rng.NewSub(inj.plan.Seed, streamCrash, 0)
	return inj
}

// state returns rank's stream for the category, creating it on first use.
// Stream derivation lives in internal/rng (rank 0's streams coincide with
// the historical per-category ones).
func (i *Injector) state(m map[int]*rng.Stream, stream, rank int) *rng.Stream {
	st, ok := m[rank]
	if !ok {
		st = rng.NewSub(i.plan.Seed, stream, rank)
		m[rank] = st
	}
	return st
}

// Plan returns the injector's plan.
func (i *Injector) Plan() Plan { return i.plan }

// MsgFate draws the fate of one message transmission sent by rank. Exactly
// four uniforms are consumed from the rank's message stream per call
// regardless of outcome, so the stream position is independent of earlier
// results. When drop is true the other flags are false (a lost message
// cannot also be delivered).
func (i *Injector) MsgFate(rank int) (drop, dup, delay, degrade bool) {
	st := i.state(i.msgStates, streamMsg, rank)
	drop = st.Uniform() < i.plan.Drop
	dup = st.Uniform() < i.plan.Dup
	delay = st.Uniform() < i.plan.Delay
	degrade = st.Uniform() < i.plan.Degrade
	if drop {
		i.Counts.MsgsDropped++
		return true, false, false, false
	}
	if dup {
		i.Counts.MsgsDuplicated++
	}
	if delay {
		i.Counts.MsgsDelayed++
	}
	if degrade {
		i.Counts.MsgsDegraded++
	}
	return drop, dup, delay, degrade
}

// OffloadFate draws the fate of one athread offload on rank: a stalled
// gang whose completion flag never fills, or a straggler running factor
// times slower. Two uniforms are consumed from the rank's offload stream
// per call; factor is 1 for a healthy offload.
func (i *Injector) OffloadFate(rank int) (stall bool, factor float64) {
	st := i.state(i.offStates, streamOffload, rank)
	stallDraw := st.Uniform() < i.plan.Stall
	straggleDraw := st.Uniform() < i.plan.Straggle
	if stallDraw {
		i.Counts.OffloadStalls++
		return true, 1
	}
	if straggleDraw {
		i.Counts.Stragglers++
		return false, StraggleFactor
	}
	return false, 1
}

// CrashPoint draws whether (and where) a whole core group crashes during a
// run of nSteps on nRanks ranks: the failing rank, the 1-based step during
// which it dies, and the fraction of that step's expected duration at which
// the crash fires. A plan with CrashAtStep set returns that point
// deterministically without consuming the stream.
func (i *Injector) CrashPoint(nSteps, nRanks int) (rank, step int, frac float64, ok bool) {
	if i.plan.CrashAtStep > 0 {
		r := i.plan.CrashRank
		if r >= nRanks {
			r = nRanks - 1
		}
		return r, i.plan.CrashAtStep, 0.5, true
	}
	if i.plan.Crash <= 0 {
		return 0, 0, 0, false
	}
	happen := i.crashState.Uniform() < i.plan.Crash
	rank = int(i.crashState.Uniform() * float64(nRanks))
	step = 1 + int(i.crashState.Uniform()*float64(nSteps))
	frac = i.crashState.Uniform()
	if !happen {
		return 0, 0, 0, false
	}
	if rank >= nRanks {
		rank = nRanks - 1
	}
	if step > nSteps {
		step = nSteps
	}
	return rank, step, frac, true
}
