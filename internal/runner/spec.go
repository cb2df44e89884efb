// Package runner turns "run one simulation case" into a first-class job:
// a Spec with a canonical content hash, executed by a worker pool across
// GOMAXPROCS goroutines, memoised in a content-addressed result cache
// (in-memory LRU plus an optional on-disk JSON store), and hardened with
// per-job timeouts, panic recovery and bounded retry. The cache is the
// only memo: Submit answers a cached spec on the spot, with a job that is
// already done, so hits never queue behind executions.
//
// The package is deliberately ignorant of how a Spec is executed: callers
// supply an ExecFunc (internal/experiments provides the one that builds
// and runs a simulated-Sunway case), which keeps the dependency direction
// experiments -> runner -> core.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"sunuintah/internal/faults"
)

// specHashVersion salts every content hash. Bump it whenever the meaning
// of a Spec field (or the executed simulation behind it) changes, so stale
// on-disk cache entries are ignored rather than served.
const specHashVersion = "v1"

// Spec identifies one simulation case: everything that determines the
// run's outcome and nothing else. Runs are deterministic functions of
// their Spec (the determinism guard in this package's tests enforces it),
// which is the invariant the content-addressed cache depends on.
type Spec struct {
	// Problem is a Table III patch-size name (e.g. "32x64x512"). Leave
	// empty to describe a custom case via Cells.
	Problem string `json:"problem,omitempty"`
	// Cells is a custom global grid size "XxYxZ", used when Problem is
	// empty (e.g. small functional-mode cases served by sunserver).
	Cells string `json:"cells,omitempty"`
	// Layout is the patch layout "AxBxC". Empty means the paper's fixed
	// 8x8x2 layout for named problems and 1x1x1 for custom cells.
	Layout string `json:"layout,omitempty"`
	// CGs is the number of core groups (MPI ranks).
	CGs int `json:"cgs"`
	// Variant is a Table IV variant name (e.g. "acc_simd.async").
	Variant string `json:"variant"`
	// Steps is the number of timesteps.
	Steps int `json:"steps"`
	// Noise enables kernel jitter of up to this fraction; Seed selects
	// the jitter stream. The paper's best-of-k protocol is k jobs with
	// seeds 1..k reduced by min (Repeats, MinResult), not a Spec field.
	Noise float64 `json:"noise,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	// Functional computes real field data instead of timing-only mode.
	Functional bool `json:"functional,omitempty"`

	// Future-work ablation knobs (Section IX).
	AsyncDMA    bool   `json:"asyncDMA,omitempty"`
	TilePacking bool   `json:"tilePacking,omitempty"`
	CPEGroups   int    `json:"cpeGroups,omitempty"`
	TileSize    string `json:"tileSize,omitempty"`

	// Physics selects the scheduled model problem: a registered single
	// model ("burgers", "advection", "heat3d") or a seeded per-patch
	// mixture ("mix:burgers=2,advection=1,heat3d=1,seed=7"). Empty and
	// "burgers" both mean the historical Burgers default and hash
	// identically to a spec without the field, so pre-existing cache
	// entries stay valid. Producers should store the canonical selector
	// form (physics.Selection.Canonical); the runner hashes the string
	// as given.
	Physics string `json:"physics,omitempty"`

	// Faults is the deterministic fault-injection plan; nil (or all-zero)
	// runs the case fault-free and hashes identically to a spec without
	// the field, so pre-existing cache entries stay valid.
	Faults *faults.Plan `json:"faults,omitempty"`

	// Report attaches the flight recorder (core's Result.Obs) and Trace
	// additionally captures the full event timeline. Both are reporting
	// knobs: they never change scheduling, timing or numerics, and the
	// recorded series are bit-identical across worker counts — so, like
	// the pool's worker count, they deliberately never enter the canonical
	// form or the content hash. (A cached result may therefore lack a report the
	// request asked for; callers that need one bypass the cache.)
	Report bool `json:"report,omitempty"`
	Trace  bool `json:"trace,omitempty"`
}

// canonical renders the spec as a stable, unambiguous key string. Every
// field participates; field order is fixed.
func (s Spec) canonical() string {
	key := fmt.Sprintf("%s|problem=%s|cells=%s|layout=%s|cgs=%d|variant=%s|steps=%d|noise=%g|seed=%d|functional=%t|asyncdma=%t|packing=%t|cpegroups=%d|tilesize=%s",
		specHashVersion, s.Problem, s.Cells, s.Layout, s.CGs, s.Variant, s.Steps,
		s.Noise, s.Seed, s.Functional, s.AsyncDMA, s.TilePacking, s.CPEGroups, s.TileSize)
	if p := s.Physics; p != "" && p != "burgers" {
		key += "|physics=" + p
	}
	if !s.Faults.Zero() {
		key += "|faults=" + s.Faults.Canonical()
	}
	return key
}

// Hash is the canonical content hash of the spec: the cache key and the
// pool's dedup key.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.canonical()))
	return hex.EncodeToString(sum[:])
}

// String names the spec compactly for progress output.
func (s Spec) String() string {
	name := s.Problem
	if name == "" {
		name = s.Cells
	}
	out := fmt.Sprintf("%s/%s@%dCG", name, s.Variant, s.CGs)
	if p := s.Physics; p != "" && p != "burgers" {
		out += " " + p
	}
	if s.Noise > 0 {
		out += fmt.Sprintf(" seed=%d", s.Seed)
	}
	if !s.Faults.Zero() {
		out += " +faults"
	}
	return out
}
