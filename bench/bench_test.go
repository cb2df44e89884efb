package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// tables from drifting: the file is exactly what -manifest prints.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Fatal("BENCHMARK.json differs from the metric tables; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	var m struct {
		Workloads []workloadDef `json:"workloads"`
	}
	if err := json.Unmarshal(onDisk, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %q is declared but has no runner", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(m.Workloads) != len(runners) {
		t.Errorf("%d workloads declared, %d runners", len(m.Workloads), len(runners))
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at smoke-test scale, untraced and traced,
// and checks that each emits exactly the declared metric names, passes its
// correctness checks, and leaves neither a server process nor a temp
// directory behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sunserver and runs simulations")
	}
	root, build := repoRoot(t), t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: w.Name, seed: 7, seconds: 1, trace: trace, tiny: true, root: root, build: build}
			res, m, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: failed checks: %v", w.Name, trace, m.failures)
			}
			want := names(endToEnd)
			if trace {
				want = names(perLayer)
			}
			got := make([]string, 0, len(res.Metrics))
			for name, v := range res.Metrics {
				got = append(got, name)
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, v.Value)
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics %v, declared %v", w.Name, trace, got, want)
			}
		}
	}

	left, err := os.ReadDir(build)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != "sunserver" {
			t.Errorf("left behind in the build directory: %s", e.Name())
		}
	}
	bin := filepath.Join(build, "sunserver")
	procs, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && exe == bin {
			t.Errorf("sunserver still running: %s", p)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	set := func(scale float64) *resultSet {
		s := &resultSet{Schema: resultSchema, Seed: 1, Seconds: 1, GoMaxProcs: 2}
		for _, w := range workloads {
			for i := 0; i < 3; i++ {
				r := runRecord{Workload: w.Name, Seed: uint64(i)}
				r.Metrics = map[string]metricValue{}
				for _, d := range endToEnd {
					v := 100 + float64(i)
					if d.Better == "lower" {
						v *= scale
					}
					r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
				}
				s.Runs = append(s.Runs, r)
			}
			r := runRecord{Workload: w.Name, Trace: true}
			r.Metrics = map[string]metricValue{}
			for _, d := range perLayer {
				r.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	write := func(s *resultSet) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same, slower := write(set(1)), write(set(1.5))
	if err := compareFiles(same, same); err != nil {
		t.Errorf("a set compared with itself: %v", err)
	}
	if err := compareFiles(same, slower); err == nil {
		t.Error("lower-is-better metrics 50% worse: want a regression")
	}
	other := set(1)
	other.GoMaxProcs = 4
	if err := compareFiles(same, write(other)); err == nil {
		t.Error("different gomaxprocs: want a refusal")
	}
	drift := set(1)
	drift.Runs[len(drift.Runs)-1].Metrics["sim.events_per_step"] = metricValue{Value: 2}
	if err := compareFiles(same, write(drift)); err == nil {
		t.Error("an exact metric changed: want a failure")
	}
}
