package faults

import (
	"math"
	"strings"
	"testing"
)

// Identical seed + plan must reproduce the exact draw sequence.
func TestStreamsDeterministic(t *testing.T) {
	plan := Default()
	a := NewInjector(plan)
	b := NewInjector(plan)
	for i := 0; i < 2000; i++ {
		ad, adup, adel, adeg := a.MsgFate(0)
		bd, bdup, bdel, bdeg := b.MsgFate(0)
		if ad != bd || adup != bdup || adel != bdel || adeg != bdeg {
			t.Fatalf("MsgFate diverged at draw %d", i)
		}
		as, af := a.OffloadFate(0)
		bs, bf := b.OffloadFate(0)
		if as != bs || af != bf {
			t.Fatalf("OffloadFate diverged at draw %d", i)
		}
	}
	if a.Counts != b.Counts {
		t.Fatalf("counts diverged: %+v vs %+v", a.Counts, b.Counts)
	}
	if a.Counts.MsgsDropped == 0 || a.Counts.OffloadStalls == 0 {
		t.Fatalf("default plan injected nothing over 2000 draws: %+v", a.Counts)
	}
}

// Streams are independent: extra draws in one category must not shift
// another category's sequence.
func TestStreamsIndependent(t *testing.T) {
	plan := Default()
	a := NewInjector(plan)
	b := NewInjector(plan)
	for i := 0; i < 100; i++ {
		a.MsgFate(0) // perturb only the message stream on a
	}
	for i := 0; i < 50; i++ {
		as, af := a.OffloadFate(0)
		bs, bf := b.OffloadFate(0)
		if as != bs || af != bf {
			t.Fatalf("offload stream shifted by message draws at %d", i)
		}
	}
}

// Different seeds must produce different fault histories.
func TestSeedMatters(t *testing.T) {
	p1 := Default()
	p2 := Default()
	p2.Seed = 2
	a, b := NewInjector(p1), NewInjector(p2)
	same := true
	for i := 0; i < 500; i++ {
		ad, _, _, _ := a.MsgFate(0)
		bd, _, _, _ := b.MsgFate(0)
		if ad != bd {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 500-draw drop history")
	}
}

func TestZeroAndNilPlans(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Zero() {
		t.Fatal("nil plan must be Zero")
	}
	if NewInjector(nilPlan) != nil {
		t.Fatal("nil plan must yield nil injector")
	}
	if NewInjector(&Plan{Seed: 42}) != nil {
		t.Fatal("seed-only plan injects nothing and must yield nil injector")
	}
	if NewInjector(&Plan{Drop: 0.1}) == nil {
		t.Fatal("nonzero plan must yield an injector")
	}
	if NewInjector(&Plan{CrashAtStep: 3}) == nil {
		t.Fatal("forced-crash plan must yield an injector")
	}
}

// TestCanonicalPinned pins the canonical form to the text written when the
// magnitudes and the recovery policy were still plan keys: it is hashed
// into every stored spec's content hash, so a disk-cache entry or a
// journaled result of a faulted spec stays findable only while it holds.
func TestCanonicalPinned(t *testing.T) {
	const policy = "max-restarts=4,ckpt-every=2,ckpt-cost=0.002,restart-cost=0.02,deadline-factor=4,max-retries=2,unhealthy-after=3"
	if got, want := Default().Canonical(), "seed=1,drop=0.02,dup=0.01,delay=0.05,delay-factor=4,degrade=0.05,degrade-factor=3,stall=0.02,straggle=0.05,straggle-factor=3,crash=0.25,crash-at=0,crash-rank=0,"+policy; got != want {
		t.Errorf("Default().Canonical() =\n%s\nwant\n%s", got, want)
	}
	p, err := Parse("crash-at=4,crash-rank=1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Canonical(), "seed=0,drop=0,dup=0,delay=0,delay-factor=4,degrade=0,degrade-factor=3,stall=0,straggle=0,straggle-factor=3,crash=0,crash-at=4,crash-rank=1,"+policy; got != want {
		t.Errorf("crash-at=4,crash-rank=1 canonical =\n%s\nwant\n%s", got, want)
	}
}

// Canonical must be stable and reflect every plan value.
func TestCanonical(t *testing.T) {
	a := &Plan{Drop: 0.1}
	if a.Canonical() != (&Plan{Drop: 0.1}).Canonical() {
		t.Fatal("canonical form is not stable")
	}
	for _, b := range []*Plan{{Drop: 0.1, Seed: 9}, {Drop: 0.1, Stall: 0.1}, {Drop: 0.1, CrashAtStep: 2}, {Drop: 0.1, CrashRank: 1}} {
		if a.Canonical() == b.Canonical() {
			t.Fatalf("%+v not reflected in canonical form", *b)
		}
	}
}

// Validate holds a plan built in Go or decoded from JSON to Parse's rule.
func TestValidate(t *testing.T) {
	for _, ok := range []*Plan{{}, Default(), {CrashAtStep: 3, CrashRank: 1}, {Drop: 2}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", *ok, err)
		}
	}
	for _, bad := range []struct {
		plan Plan
		key  string
	}{
		{Plan{Drop: -0.5}, "drop"},
		{Plan{Straggle: math.NaN()}, "straggle"},
		{Plan{Crash: math.Inf(1)}, "crash"},
		{Plan{CrashAtStep: 1, CrashRank: -1}, "crash-rank"},
		{Plan{CrashAtStep: -2}, "crash-at"},
	} {
		err := bad.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), bad.key) {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", bad.plan, err, bad.key)
		}
	}
}

func TestScaled(t *testing.T) {
	p := Default()
	h := p.Scaled(0.5)
	if h.Drop != p.Drop/2 || h.Crash != p.Crash/2 {
		t.Fatalf("Scaled(0.5) wrong: %+v", h)
	}
	if !p.Scaled(0).Zero() {
		t.Fatal("Scaled(0) must be a zero plan")
	}
	if big := p.Scaled(1000); big.Drop != 1 || big.Crash != 1 {
		t.Fatalf("Scaled must clamp rates to 1: %+v", big)
	}
	if q := (&Plan{Seed: 4, Drop: 0.1, CrashAtStep: 2, CrashRank: 1}).Scaled(2); q.Seed != 4 || q.CrashAtStep != 2 || q.CrashRank != 1 {
		t.Fatalf("Scaled must touch only the rates: %+v", q)
	}
}

func TestParse(t *testing.T) {
	if p, err := Parse(""); err != nil || p != nil {
		t.Fatalf("empty spec: %v %v", p, err)
	}
	if p, err := Parse("off"); err != nil || p != nil {
		t.Fatalf("off spec: %v %v", p, err)
	}
	p, err := Parse("default")
	if err != nil {
		t.Fatal(err)
	}
	if *p != *Default() {
		t.Fatalf("default preset mismatch: %+v", p)
	}
	p, err = Parse("default,seed=7,scale=0.5,crash-at=3,crash-rank=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Drop != Default().Drop*0.5 || p.CrashAtStep != 3 || p.CrashRank != 1 {
		t.Fatalf("composite spec mismatch: %+v", p)
	}
	p, err = Parse("drop=0.25,stall=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.25 || p.Stall != 0.1 {
		t.Fatalf("key=value spec mismatch: %+v", p)
	}
	// A spec that scales everything to zero is a nil plan.
	if p, err := Parse("default,scale=0"); err != nil || p != nil {
		t.Fatalf("scaled-to-zero spec should be nil: %v %v", p, err)
	}
	bad := []string{"nope", "drop=x", "scale=-1", "frob=1", "seed=-2", "crash-rank=-1", "drop=-1,scale=0"}
	// The magnitudes and the recovery policy are constants, not keys.
	for _, k := range []string{"delay-factor", "degrade-factor", "straggle-factor", "max-restarts",
		"ckpt-every", "ckpt-cost", "restart-cost", "deadline-factor", "max-retries", "unhealthy-after"} {
		bad = append(bad, "drop=0.1,"+k+"=2")
	}
	for _, bad := range bad {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestMsgFateConsumesFixedDraws(t *testing.T) {
	// Two plans with very different rates but the same seed must keep the
	// crash stream aligned after arbitrary MsgFate draws (fixed
	// consumption per call).
	hi := &Plan{Seed: 5, Drop: 0.9, Dup: 0.9, Delay: 0.9, Degrade: 0.9, Crash: 0.5}
	lo := &Plan{Seed: 5, Drop: 0.001, Crash: 0.5}
	a, b := NewInjector(hi), NewInjector(lo)
	for i := 0; i < 64; i++ {
		a.MsgFate(0)
		b.MsgFate(0)
	}
	ar, as, af, aok := a.CrashPoint(10, 4)
	br, bs, bf, bok := b.CrashPoint(10, 4)
	if ar != br || as != bs || af != bf || aok != bok {
		t.Fatal("crash stream perturbed by message-fate outcomes")
	}
}

func TestCrashPoint(t *testing.T) {
	inj := NewInjector(&Plan{Seed: 3, CrashAtStep: 4, CrashRank: 2})
	r, s, _, ok := inj.CrashPoint(10, 4)
	if !ok || r != 2 || s != 4 {
		t.Fatalf("forced crash point wrong: rank=%d step=%d ok=%v", r, s, ok)
	}
	// Forced rank clamps to the communicator size.
	inj = NewInjector(&Plan{CrashAtStep: 4, CrashRank: 99})
	if r, _, _, _ := inj.CrashPoint(10, 2); r != 1 {
		t.Fatalf("crash rank not clamped: %d", r)
	}
	// Certain crash: always ok, in range.
	inj = NewInjector(&Plan{Seed: 8, Crash: 1})
	for i := 0; i < 100; i++ {
		r, s, f, ok := inj.CrashPoint(10, 4)
		if !ok || r < 0 || r >= 4 || s < 1 || s > 10 || f < 0 || f >= 1 {
			t.Fatalf("crash draw out of range: rank=%d step=%d frac=%g ok=%v", r, s, f, ok)
		}
	}
	// Impossible crash: never ok.
	inj = NewInjector(&Plan{Seed: 8, Crash: 0, Drop: 0.1})
	if _, _, _, ok := inj.CrashPoint(10, 4); ok {
		t.Fatal("crash drawn with zero crash rate")
	}
}

// Per-rank streams: one rank's draw sequence must not depend on how many
// draws other ranks made, and distinct ranks must see distinct histories.
func TestPerRankStreamsIndependent(t *testing.T) {
	plan := Default()
	a := NewInjector(plan)
	b := NewInjector(plan)
	for i := 0; i < 300; i++ {
		a.MsgFate(1) // perturb only rank 1 on a
		a.OffloadFate(1)
	}
	for i := 0; i < 200; i++ {
		ad, adup, adel, adeg := a.MsgFate(0)
		bd, bdup, bdel, bdeg := b.MsgFate(0)
		if ad != bd || adup != bdup || adel != bdel || adeg != bdeg {
			t.Fatalf("rank 0 message stream shifted by rank 1 draws at %d", i)
		}
		as, af := a.OffloadFate(0)
		bs, bf := b.OffloadFate(0)
		if as != bs || af != bf {
			t.Fatalf("rank 0 offload stream shifted by rank 1 draws at %d", i)
		}
	}
	// Distinct ranks draw distinct histories from one seed.
	c := NewInjector(plan)
	same := true
	for i := 0; i < 500; i++ {
		cd, _, _, _ := c.MsgFate(2)
		cd3, _, _, _ := c.MsgFate(3)
		if cd != cd3 {
			same = false
		}
	}
	if same {
		t.Fatal("ranks 2 and 3 produced identical 500-draw drop history")
	}
}
