package workload

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"sunuintah/internal/sim"
	"sunuintah/internal/trace"
)

func toSim(t float64) sim.Time { return sim.Time(t) }

func TestDefaultScenarioValid(t *testing.T) {
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExpandDeterministic(t *testing.T) {
	// Same spec + seed => byte-identical schedule. The schedule is pure
	// data, so worker counts and shard counts cannot touch it; this
	// pins that no global randomness sneaks in either.
	a, err := DefaultScenario().Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultScenario().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("two expansions of the same scenario differ")
	}

	reseeded := DefaultScenario()
	reseeded.Seed = 2
	c, err := reseeded.Expand()
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("expansion ignores the scenario seed")
	}
}

func TestExpandSchedule(t *testing.T) {
	sc := DefaultScenario()
	jobs, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("no jobs expanded")
	}
	// Sorted by arrival, and all inside the scenario's total duration.
	var total float64
	for _, ph := range sc.Phases {
		total += ph.Duration
	}
	last := -1.0
	perPhase := map[string]int{}
	for _, j := range jobs {
		if j.At < last {
			t.Fatalf("jobs out of order: %g after %g", j.At, last)
		}
		last = j.At
		if j.At < 0 || j.At >= total {
			t.Fatalf("job at %g outside scenario duration %g", j.At, total)
		}
		perPhase[j.Phase]++
	}
	for _, ph := range sc.Phases {
		if perPhase[ph.Name] == 0 {
			t.Fatalf("phase %q produced no jobs (got %v)", ph.Name, perPhase)
		}
	}
	// The storm phase emits exactly burst*waves jobs, cycling layouts
	// and reseeding the mix each wave.
	storm := sc.Phases[2]
	waves := int(math.Ceil(storm.Duration / storm.Arrival.Every))
	if want := waves * storm.Arrival.Burst; perPhase[storm.Name] != want {
		t.Fatalf("storm emitted %d jobs, want %d", perPhase[storm.Name], want)
	}
	layouts := map[string]bool{}
	stormPhysics := map[string]bool{}
	for _, j := range jobs {
		if j.Phase != storm.Name {
			continue
		}
		layouts[j.Spec.Layout] = true
		stormPhysics[j.Spec.Physics] = true
	}
	if len(layouts) != waves && len(layouts) != len(storm.Arrival.Layouts) {
		t.Fatalf("storm layouts seen: %v", layouts)
	}
	if len(stormPhysics) < 2 {
		t.Fatalf("storm waves share a physics assignment seed: %v", stormPhysics)
	}
	// The constant phase's job count is close to rate*duration.
	steady := sc.Phases[0]
	want := steady.Arrival.Rate * steady.Duration
	got := float64(perPhase[steady.Name])
	if got < want/3 || got > want*3 {
		t.Fatalf("steady phase emitted %g jobs, expected about %g", got, want)
	}
}

func TestGoldenParseCanonical(t *testing.T) {
	in := `{
		"name": "golden",
		"seed": 7,
		"base": {"cells": "16x16x32", "layout": "2x2x4", "cgs": 4, "variant": "acc.async", "steps": 2},
		"phases": [
			{"name": "warm", "duration": 2, "arrival": {"pattern": "constant", "rate": 1}},
			{"name": "tide", "duration": 4,
			 "arrival": {"pattern": "periodic", "rate": 2, "periods": [{"seconds": 2, "amplitude": 0.5}]},
			 "mix": {"heat3d": 1, "burgers": 2}},
			{"name": "storm", "duration": 3,
			 "arrival": {"pattern": "storm", "burst": 2, "every": 1, "layouts": ["2x2x4", "4x4x2"]}}
		]
	}`
	sc, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"name":"golden","seed":7,"base":{"cells":"16x16x32","layout":"2x2x4","cgs":4,"variant":"acc.async","steps":2},"phases":[{"name":"warm","duration":2,"arrival":{"pattern":"constant","rate":1}},{"name":"tide","duration":4,"arrival":{"pattern":"periodic","rate":2,"periods":[{"seconds":2,"amplitude":0.5}]},"mix":{"burgers":2,"heat3d":1}},{"name":"storm","duration":3,"arrival":{"pattern":"storm","burst":2,"every":1,"layouts":["2x2x4","4x4x2"]}}]}`
	if got := sc.Canonical(); got != golden {
		t.Fatalf("canonical form drifted:\n got %s\nwant %s", got, golden)
	}
	// Canonical round-trips to an identical scenario.
	back, err := Parse([]byte(sc.Canonical()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("canonical round trip changed the scenario")
	}
}

func TestParseRejections(t *testing.T) {
	base := `"base": {"cells": "8x8x8", "cgs": 2, "variant": "acc.sync", "steps": 1}`
	cases := []struct {
		name, in, want string
	}{
		{"unknown pattern",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":1,"arrival":{"pattern":"poisson","rate":1}}]}`,
			"unknown arrival pattern"},
		{"unknown field",
			`{"name":"x","sead":1,` + base + `,"phases":[]}`,
			"unknown field"},
		{"no phases",
			`{"name":"x","seed":1,` + base + `,"phases":[]}`,
			"no phases"},
		{"negative duration",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":-1,"arrival":{"pattern":"constant","rate":1}}]}`,
			"duration must be positive"},
		{"periodic without periods",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":1,"arrival":{"pattern":"periodic","rate":1}}]}`,
			"at least one period"},
		{"storm without layouts",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":1,"arrival":{"pattern":"storm","every":1}}]}`,
			"layout cycle"},
		{"bad storm layout",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":1,"arrival":{"pattern":"storm","every":1,"layouts":["4x4"]}}]}`,
			"bad storm layout"},
		{"wave count overflows int",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":1e308,"arrival":{"pattern":"burst","every":1e-308}}]}`,
			"more than 4096 waves"},
		{"layouts on burst",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":1,"arrival":{"pattern":"burst","every":1,"layouts":["2x2x2"]}}]}`,
			"only apply to the storm"},
		{"unknown mix model",
			`{"name":"x","seed":1,` + base + `,"phases":[{"name":"p","duration":1,"arrival":{"pattern":"constant","rate":1},"mix":{"plasma":1}}]}`,
			"unknown model"},
		{"missing template",
			`{"name":"x","seed":1,"phases":[{"name":"p","duration":1,"arrival":{"pattern":"constant","rate":1}}]}`,
			"problem name or custom cells"},
		{"bad physics",
			`{"name":"x","seed":1,"base":{"cells":"8x8x8","cgs":2,"variant":"acc.sync","steps":1,"physics":"mix:burgers"},"phases":[{"name":"p","duration":1,"arrival":{"pattern":"constant","rate":1}}]}`,
			"name=weight"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestPhaseOverridesInherit(t *testing.T) {
	sc := DefaultScenario()
	sc.Phases[0].Jobs = &Template{Steps: 9, Variant: "host.sync"}
	jobs, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Phase != sc.Phases[0].Name {
			continue
		}
		if j.Spec.Steps != 9 || j.Spec.Variant != "host.sync" {
			t.Fatalf("override lost: %+v", j.Spec)
		}
		if j.Spec.Cells != sc.Base.Cells || j.Spec.CGs != sc.Base.CGs {
			t.Fatalf("inherited fields lost: %+v", j.Spec)
		}
	}
}

func TestFromTraceReplays(t *testing.T) {
	// A synthetic timeline: burgers-heavy first half, heat-heavy second
	// half. The replay must recover the activity split.
	var events []trace.Event
	add := func(name string, at float64, n int) {
		for i := 0; i < n; i++ {
			events = append(events, trace.Event{
				Kind: trace.KindKernel, Name: name,
				Start: 0, End: 0,
			})
			events[len(events)-1].Start = toSim(at + float64(i)*1e-4)
			events[len(events)-1].End = toSim(at + float64(i)*1e-4 + 5e-5)
		}
	}
	add("burgers.advance", 0.01, 16)
	add("heat.advance", 0.06, 8)
	add("advection.advance", 0.07, 8)
	// A non-kernel event extends the horizon to 0.1.
	events = append(events, trace.Event{Kind: trace.KindComm, Name: "send", Start: toSim(0.099), End: toSim(0.1)})

	sc, err := FromTrace(events, ReplayOptions{
		Bins:        2,
		TasksPerJob: 8,
		Base:        Template{Cells: "8x8x8", CGs: 2, Variant: "acc.sync", Steps: 1},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Phases) != 2 {
		t.Fatalf("want 2 replay phases, got %d", len(sc.Phases))
	}
	// First window: 16 burgers kernels = 2 jobs over 0.05s => rate 40.
	p0 := sc.Phases[0]
	if p0.Jobs == nil || p0.Jobs.Physics != "burgers" || len(p0.Mix) != 0 {
		t.Fatalf("first window should be pure burgers: %+v", p0)
	}
	if math.Abs(p0.Arrival.Rate-40) > 1e-9 {
		t.Fatalf("first window rate = %g, want 40", p0.Arrival.Rate)
	}
	// Second window mixes heat3d and advection evenly.
	p1 := sc.Phases[1]
	if len(p1.Mix) != 2 || p1.Mix["heat3d"] != p1.Mix["advection"] {
		t.Fatalf("second window mix = %v", p1.Mix)
	}
	// And the replay scenario expands through the normal path.
	jobs, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("replay scenario expands to nothing")
	}
}

func TestFromTraceRejectsEmpty(t *testing.T) {
	if _, err := FromTrace(nil, ReplayOptions{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := FromTrace([]trace.Event{{Kind: trace.KindComm, Name: "send", End: toSim(1)}}, ReplayOptions{}); err == nil {
		t.Fatal("kernel-free trace accepted")
	}
}

func BenchmarkExpand(b *testing.B) {
	sc := DefaultScenario()
	var jobs int
	for i := 0; i < b.N; i++ {
		js, err := sc.Expand()
		if err != nil {
			b.Fatal(err)
		}
		jobs = len(js)
	}
	b.ReportMetric(float64(jobs), "jobs/op")
}
