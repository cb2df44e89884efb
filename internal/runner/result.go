package runner

import (
	"sunuintah/internal/core"
)

// Result is the outcome of one executed Spec. Infeasible cases (the
// paper's Table III memory-allocation crashes) are first-class results —
// they cache like any other outcome — while genuine execution errors stay
// errors and are never cached.
type Result struct {
	Feasible bool `json:"feasible"`
	// Sim holds the full simulation result; nil when infeasible.
	Sim *core.Result `json:"sim,omitempty"`
	// ExecSeconds is the host wall-clock the original execution took.
	// Cache hits report it as time saved.
	ExecSeconds float64 `json:"execSeconds"`
}

// PerStepSeconds returns the simulated wall time per timestep, or 0 for
// infeasible results.
func (r *Result) PerStepSeconds() float64 {
	if r == nil || !r.Feasible || r.Sim == nil {
		return 0
	}
	return float64(r.Sim.PerStep)
}

// Repeats expands a spec into its best-of-k repeat set, the paper's
// protocol: "each case is repeated multiple times and the best result is
// selected". A spec using the noise model becomes k specs with seeds 1..k
// (k < 1 counts as 1); any other spec is deterministic and is its own set.
// MinResult reduces the set's results.
func Repeats(spec Spec, k int) []Spec {
	if !(spec.Noise > 0) {
		return []Spec{spec}
	}
	out := make([]Spec, max(k, 1))
	for i := range out {
		out[i] = spec
		out[i].Seed = uint64(i + 1)
	}
	return out
}

// MinResult returns the fastest feasible result of a Repeats set. If none
// is feasible it returns the first non-nil result; if all are nil it
// returns nil.
func MinResult(results []*Result) *Result {
	var best *Result
	for _, r := range results {
		if r == nil {
			continue
		}
		if best == nil {
			best = r
			continue
		}
		if r.Feasible && (!best.Feasible || r.Sim.PerStep < best.Sim.PerStep) {
			best = r
		}
	}
	return best
}
