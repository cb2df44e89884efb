// Package obs is the runtime's observability layer: a deterministic
// virtual-time flight recorder (per-rank fixed-interval series of queue
// depths, in-flight MPI traffic, CPE-gang occupancy, DMA/memory footprint
// and fault activity), a run-report builder folding those series together
// with trace overlap statistics and roofline numbers, and a small
// Prometheus-style metrics registry for the HTTP service.
//
// Determinism is the design constraint that shapes everything here. The
// sharded engine executes ranks on concurrent host goroutines, and events
// that share a virtual instant execute in different wall-clock (and seq)
// orders between the serial and sharded engines. A literal "sampler
// process" — a periodic engine event reading global state — would
// therefore observe different same-instant intermediate states per shard
// count, and scheduling extra events would itself perturb the FIFO
// tie-break of model events. Instead:
//
//   - No events. Probes are updated inline by the instrumented code paths
//     and carry timestamps from the owning rank's engine clock.
//   - Per-rank ownership. Each rank's RankProbes is touched only by that
//     rank's engine events, so sharded runs race on nothing.
//   - Lazy grid commit. A Series holds its current value and commits
//     fixed-interval grid samples only when a later transition proves the
//     value held through them, so the sample at grid instant t reflects
//     the state after all events at t — independent of the order those
//     events executed in.
//   - Future-dated transitions. Quantities that fall at a time known in
//     advance (an in-flight message decrements at its arrival instant,
//     known at post time) are queued inside the sender's own series and
//     applied lazily, never by an event on another rank's engine.
//
// The result: every sampled series is byte-identical for every engine
// shard count and worker count, which the shard bit-identity tests
// enforce.
package obs

import "sunuintah/internal/sim"

// The sampler's grid.
const (
	// DefaultInterval is the sampling grid in virtual seconds.
	DefaultInterval = 1e-5
	// DefaultMaxSamples caps each series; on overflow every other sample
	// is dropped and the grid interval doubles (so long runs degrade
	// resolution instead of memory). It is even, as NewSeries requires.
	DefaultMaxSamples = 512
)

// Options configures run-report collection. Like scheduler.Config.Workers
// and core Shards, observability options are wall-clock/reporting knobs
// only: they never change the simulated outcome and never enter the
// runner's content hash.
type Options struct {
	// Trace additionally exports the canonically sorted event timeline
	// into the run's Result, enabling Perfetto/Chrome trace download.
	Trace bool `json:"trace,omitempty"`
	// HooksOnly attaches every sampler probe but skips assembling
	// Result.Obs when the run completes. It exists for
	// benchmark harnesses that time the always-on hook cost in isolation
	// from report assembly (bench's obs.overhead_frac metric); normal
	// runs leave it false.
	HooksOnly bool `json:"-"`
}

// Sampler owns one RankProbes per rank and assembles the final Report.
// A nil Sampler is safe: Rank returns nil probes, whose hooks are no-ops.
type Sampler struct {
	ranks []*RankProbes
}

// NewSampler builds the probe sets for nRanks ranks. All eager series
// structs and sample buffers come out of two contiguous arenas allocated
// here, before the run starts: hundreds of small lazily grown buffers
// used to be allocated from inside the hooks, and the GC churn they
// caused during the parallel run phase dominated the sampler's measured
// overhead (bench's obs.overhead_frac metric).
func NewSampler(nRanks int) *Sampler {
	s := &Sampler{}
	if nRanks <= 0 {
		return s
	}
	ser := make([]Series, nRanks*eagerSeries)
	buf := make([]float64, nRanks*eagerSeries*DefaultMaxSamples)
	s.ranks = make([]*RankProbes, 0, nRanks)
	for r := 0; r < nRanks; r++ {
		off := r * eagerSeries
		s.ranks = append(s.ranks, newRankProbes(r,
			ser[off:off+eagerSeries], buf[off*DefaultMaxSamples:(off+eagerSeries)*DefaultMaxSamples]))
	}
	return s
}

// Rank returns rank r's probe set; nil on a nil sampler or out-of-range
// rank, which disables that rank's probes at zero cost.
func (s *Sampler) Rank(r int) *RankProbes {
	if s == nil || r < 0 || r >= len(s.ranks) {
		return nil
	}
	return s.ranks[r]
}

// Finalize commits every series up to and including the grid points at or
// before end. Safe to call more than once with non-decreasing ends (a
// checkpointed run finalizes per segment and again at the end).
func (s *Sampler) Finalize(end sim.Time) {
	if s == nil {
		return
	}
	for _, p := range s.ranks {
		p.finalize(float64(end))
	}
}
