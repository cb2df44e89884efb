package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// exactMetric reports whether a per-layer metric is a deterministic count or
// simulated result: two runs of the same model must agree on it bit for bit.
func exactMetric(name string) bool {
	return strings.HasPrefix(name, "model.") || strings.HasSuffix(name, "_per_step") || name == "burgers.linf_err"
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one metric's value over a set's runs of one workload.
func (s *resultSet) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareFiles judges result set B against A: one row per (workload,
// end-to-end metric) with both medians and quartiles, each metric's bound
// applied to the change in the median. A pair whose run-to-run spread
// exceeds the bound is unresolved, not unchanged, unless every run of B
// reads better than every run of A. Exact metrics must be equal.
func compareFiles(pathA, pathB string) error {
	a, err := loadResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return err
	}
	if a.Schema != resultSchema || b.Schema != resultSchema {
		return fmt.Errorf("schema %d vs %d: this bench compares schema %d", a.Schema, b.Schema, resultSchema)
	}
	if a.GoMaxProcs != b.GoMaxProcs || a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("not comparable: gomaxprocs %d vs %d, seed %d vs %d, seconds %g vs %g",
			a.GoMaxProcs, b.GoMaxProcs, a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	fmt.Printf("%-19s %-14s %10s %21s %10s %21s %8s %6s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "change", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.Name, d.Name, false), b.values(w.Name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing from a result set", w.Name, d.Name)
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			// worse > 0 means B is worse than A, as a share of A's median.
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/am, (b3-b1)/bm)
			verdict := "ok"
			switch {
			case spread > d.Bound && len(va) > 1 && !allBetter(va, vb, d.Better):
				verdict = "unresolved"
				bad++
			case worse > d.Bound:
				verdict = "REGRESSION"
				bad++
			}
			fmt.Printf("%-19s %-14s %10.4g [%9.4g,%9.4g] %10.4g [%9.4g,%9.4g] %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, am, a1, a3, bm, b1, b3, 100*(bm-am)/am, 100*d.Bound, verdict)
		}
	}
	for _, w := range workloads {
		for _, d := range perLayer {
			if !exactMetric(d.Name) {
				continue
			}
			va, vb := a.values(w.Name, d.Name, true), b.values(w.Name, d.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: no traced run in a result set", w.Name, d.Name)
			}
			if va[0] != vb[0] {
				fmt.Printf("%-19s %-28s exact metric differs: %v vs %v\n", w.Name, d.Name, va[0], vb[0])
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions, unresolved pairs or exact-metric differences", bad)
	}
	fmt.Println("no regression, no unresolved pair, exact metrics identical")
	return nil
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
