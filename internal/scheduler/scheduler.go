// Package scheduler implements the paper's Sunway-specific Uintah task
// scheduler (Section V): an MPE task scheduler that distributes, readies
// and completes task objects while driving MPI, and a CPE tile scheduler
// that partitions each offloaded patch into LDM-sized tiles across the 64
// CPEs.
//
// The MPE scheduler supports the paper's three operation modes:
//
//   - ModeMPEOnly ("host"): the ready task's kernel executes on the MPE
//     itself, with no offloading.
//   - ModeSync ("acc…sync"): the kernel is offloaded and the MPE spins on
//     the completion flag — no overlap of computation with communication.
//   - ModeAsync ("acc…async"): the offload returns immediately and the MPE
//     keeps posting/testing MPI requests, unpacking ghost data and
//     preparing further tasks while the CPEs compute. This is the paper's
//     primary contribution.
package scheduler

import (
	"fmt"
	"runtime"

	"sunuintah/internal/athread"
	"sunuintah/internal/dw"
	"sunuintah/internal/faults"
	"sunuintah/internal/grid"
	"sunuintah/internal/mpisim"
	"sunuintah/internal/obs"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

// Mode selects the scheduler's operation mode (Section V-C).
type Mode int

// Scheduler operation modes.
const (
	ModeMPEOnly Mode = iota
	ModeSync
	ModeAsync
)

func (m Mode) String() string {
	switch m {
	case ModeMPEOnly:
		return "mpe-only"
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config selects a scheduler variant (the paper's Table IV) plus the
// future-work extensions of Section IX.
type Config struct {
	Mode Mode
	// SIMD selects the vectorised kernel cost model (Section VI-B).
	SIMD bool
	// TileSize is the LDM tile shape; the paper uses 16x16x8.
	TileSize grid.IVec
	// Functional runs real numerics; otherwise timing-only.
	Functional bool
	// Trace optionally records the scheduler's activity timeline.
	Trace *trace.Recorder
	// Probes is this rank's flight-recorder probe set: virtual-time series
	// of queue depth, work-ahead backlog and gang occupancy. nil disables
	// sampling at zero cost. Like Workers, it is a reporting knob only —
	// it never changes the simulated outcome and never enters the
	// runner's spec hash.
	Probes *obs.RankProbes

	// AsyncDMA enables the paper's future-work double-buffered
	// memory<->LDM transfers: each tile's DMA overlaps the previous
	// tile's compute.
	AsyncDMA bool
	// TilePacking enables the future-work packed tile transfers (better
	// DMA efficiency, amortised latency).
	TilePacking bool
	// CPEGroups > 1 splits the CPE cluster into that many groups, each
	// computing a different patch concurrently (future-work task+data
	// parallelism). 0 or 1 means the whole cluster works one patch.
	CPEGroups int
	// Scrub frees non-persistent new-warehouse variables as soon as their
	// last intra-step consumer completes (Uintah's data-warehouse variable
	// scrubbing), lowering the memory high-water mark for task chains.
	Scrub bool
	// Workers bounds the host worker pool that executes the numeric
	// bodies of independent tiles in functional mode — the software
	// analogue of the CPE gangs computing tiles in parallel. 0 means
	// GOMAXPROCS; 1 runs the bodies inline (serial). Results are
	// byte-identical for every value: tile outputs are disjoint and no
	// cross-tile combining happens on the pool, so this is a wall-clock
	// knob only (it never enters the runner's spec hash).
	Workers int
	// InOrder forces strict task-declaration x patch-ID execution order,
	// disabling the out-of-order selection Uintah normally allows ("in
	// ordered or possibly out of order fashion" — Section II). Useful as a
	// baseline for measuring what out-of-order readiness buys.
	InOrder bool
}

// DefaultTileSize is the paper's tile shape.
var DefaultTileSize = grid.IV(16, 16, 8)

// Variant returns the paper's Table IV variant name for the configuration.
func (c Config) Variant() string {
	switch c.Mode {
	case ModeMPEOnly:
		return "host.sync"
	case ModeSync:
		if c.SIMD {
			return "acc_simd.sync"
		}
		return "acc.sync"
	case ModeAsync:
		if c.SIMD {
			return "acc_simd.async"
		}
		return "acc.async"
	}
	return "unknown"
}

// Stats aggregates one rank's per-run scheduler statistics.
type Stats struct {
	TasksRun       int64
	Offloads       int64
	MPEKernelTime  sim.Time
	KernelWaitTime sim.Time // MPE blocked on the completion flag (sync mode)
	MPEWorkTime    sim.Time // packing, unpacking, touches, BC fills, copies
	CommTime       sim.Time // posting and testing MPI requests
	IdleTime       sim.Time // waiting with nothing to do
	StepsRun       int

	// Faults counts the rank's recovery actions under fault injection;
	// nil (and absent from JSON) on fault-free runs.
	Faults *FaultStats `json:"Faults,omitempty"`
}

// FaultStats counts a rank's scheduler-level fault recoveries.
type FaultStats struct {
	OffloadTimeouts int64 // offloads aborted at their deadline
	Reoffloads      int64 // aborted offloads relaunched on the CPEs
	MPEFallbacks    int64 // kernels degraded to MPE execution
	UnhealthyGangs  int64 // CPE gangs marked unhealthy (kept off rotation)
}

// faultStats lazily allocates the fault counters (only faulty runs carry
// them, keeping fault-free JSON unchanged).
func (s *Rank) faultStats() *FaultStats {
	if s.Stats.Faults == nil {
		s.Stats.Faults = &FaultStats{}
	}
	return s.Stats.Faults
}

// Rank is one MPI rank's scheduler instance: the MPE-side state machine
// plus the CPE tile scheduler for its core group.
type Rank struct {
	cfg    Config
	params perf.Params
	graph  *taskgraph.Graph
	cg     *sw26010.CoreGroup
	group  *athread.Group
	mpi    *mpisim.Rank
	DWs    *dw.Pair

	flag     *sim.Counter
	maxGhost map[*taskgraph.Label]int

	// inj mirrors cg.Faults; nil on fault-free runs (every resilience path
	// is gated on it, so the fault-free schedule is untouched).
	inj *faults.Injector

	// Per-step communication state.
	recvs []pendingRecv
	sends []pendingSend
	// Scratch buffers for the lazy send sweep, reused across polls so
	// the steady-state step loop allocates nothing.
	sweepIdx  []int
	sweepReqs []*mpisim.Request
	sweepOks  []bool
	// wakeName is the precomputed diagnostic name for waitForEvent's
	// one-shot wake signal; wake/wakeFire are the pooled signal and its
	// method value, reused across parks in fault-free runs.
	wakeName string
	wake     *sim.Signal
	wakeFire func()
	// notes interns "prefix + label" trace annotations: the step loop
	// emits the same few dozen strings every step, and building them once
	// keeps the steady-state loop free of string allocation.
	notes map[noteKey]string

	// patchCost accumulates each local patch's kernel time, feeding the
	// measurement-based load balancer.
	patchCost map[int]sim.Time

	// slots are the offload lanes (one per CPE group).
	slots []*slot
	// plans caches each patch's tile plan from its first offload on.
	plans map[planKey]*tilePlan
	// tiles and vars are the current offload's tile contexts and the
	// variable views they slice; bufs is runTile's per-tile scratch. All
	// three are rewound, not reallocated, from one offload to the next.
	tiles []taskgraph.TileContext
	vars  []taskgraph.TileVar
	bufs  []*athread.LDMBuf
	// prepared queues objects whose MPE part was processed ahead of time
	// while the CPEs were busy (asynchronous mode's work-ahead).
	prepared []*taskgraph.Object
	// consumers counts this step's outstanding intra-step readers of each
	// new-warehouse variable, for scrubbing.
	consumers map[scrubKey]int

	Stats Stats
}

type noteKey struct{ prefix, name string }

// note returns the interned concatenation prefix+name.
func (s *Rank) note(prefix, name string) string {
	k := noteKey{prefix, name}
	if v, ok := s.notes[k]; ok {
		return v
	}
	if s.notes == nil {
		s.notes = map[noteKey]string{}
	}
	v := prefix + name
	s.notes[k] = v
	return v
}

type pendingRecv struct {
	edge  *taskgraph.Edge
	req   *mpisim.Request
	done  bool
	armed bool // the pooled wake is registered on req's signal (waitForEvent)
}

type pendingSend struct {
	req   *mpisim.Request
	done  bool
	armed bool
}

// New creates the scheduler for one rank. The graph must have been
// compiled for mpi's rank ID.
func New(cfg Config, graph *taskgraph.Graph, cg *sw26010.CoreGroup, mpi *mpisim.Rank) (*Rank, error) {
	if graph.Rank != mpi.RankID() {
		return nil, fmt.Errorf("scheduler: graph compiled for rank %d, MPI rank is %d", graph.Rank, mpi.RankID())
	}
	if !cfg.TileSize.AllPositive() {
		cfg.TileSize = DefaultTileSize
	}
	if cfg.CPEGroups < 1 {
		cfg.CPEGroups = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	mode := dw.TimingOnly
	if cfg.Functional {
		mode = dw.Functional
	}
	s := &Rank{
		cfg:    cfg,
		params: cg.Params,
		graph:  graph,
		cg:     cg,
		group:  athread.NewGroup(cg),
		mpi:    mpi,
		DWs:    dw.NewPair(mode, cg),
		flag:   sim.NewCounter(cg.Engine(), fmt.Sprintf("rank%d.flag", mpi.RankID())),
	}
	s.inj = cg.Faults
	s.patchCost = map[int]sim.Time{}
	s.maxGhost = map[*taskgraph.Label]int{}
	for _, t := range graph.Tasks {
		for _, d := range t.Requires {
			if d.Ghost > s.maxGhost[d.Label] {
				s.maxGhost[d.Label] = d.Ghost
			}
		}
		for _, d := range t.Computes {
			if _, ok := s.maxGhost[d.Label]; !ok {
				s.maxGhost[d.Label] = 0
			}
		}
	}
	s.initSlots()
	return s, nil
}

// Graph returns the rank's compiled task graph.
func (s *Rank) Graph() *taskgraph.Graph { return s.graph }

// SetGraph installs a newly compiled graph (after load balancing or
// regridding changed the patch assignment). The warehouses are untouched:
// the caller is responsible for having migrated variable data to match the
// new assignment.
func (s *Rank) SetGraph(g *taskgraph.Graph) error {
	if g.Rank != s.mpi.RankID() {
		return fmt.Errorf("scheduler: graph compiled for rank %d, MPI rank is %d", g.Rank, s.mpi.RankID())
	}
	s.graph = g
	s.prepared = s.prepared[:0]
	return nil
}

// MaxGhost returns the allocation ghost width of a label (the maximum any
// task requires).
func (s *Rank) MaxGhost(l *taskgraph.Label) int { return s.maxGhost[l] }

// CoreGroup returns the rank's core group.
func (s *Rank) CoreGroup() *sw26010.CoreGroup { return s.cg }

// PatchCosts returns the accumulated kernel time of each local patch, the
// per-patch cost estimates a measurement-based load balancer consumes.
func (s *Rank) PatchCosts() map[int]sim.Time { return s.patchCost }

// ResetPatchCosts clears the measurements (after a rebalance).
func (s *Rank) ResetPatchCosts() { s.patchCost = map[int]sim.Time{} }

// scrubKey identifies a new-warehouse variable instance.
type scrubKey struct {
	label   *taskgraph.Label
	patchID int
}

// resetConsumers rebuilds the intra-step consumer counts for scrubbing.
func (s *Rank) resetConsumers() {
	s.consumers = map[scrubKey]int{}
	for _, o := range s.graph.Objects {
		for _, d := range o.Task.Requires {
			if d.DW != taskgraph.NewDW {
				continue
			}
			if o.Patch != nil {
				s.consumers[scrubKey{d.Label, o.Patch.ID}]++
			} else {
				for _, p := range s.graph.LocalPatches {
					if !o.Task.AppliesTo(p.ID) {
						continue
					}
					s.consumers[scrubKey{d.Label, p.ID}]++
				}
			}
		}
	}
}

// noteConsumed decrements a variable's outstanding readers and scrubs it
// when the last one finishes (non-persistent labels only).
func (s *Rank) noteConsumed(l *taskgraph.Label, patchID int) {
	k := scrubKey{l, patchID}
	n, ok := s.consumers[k]
	if !ok {
		return
	}
	n--
	s.consumers[k] = n
	if n == 0 && !s.graph.Persistent[l] {
		s.DWs.New.Free(l, s.graph.Level.Layout.Patch(patchID))
	}
}

// charge advances the process by d and attributes it to a stats bucket and
// the trace. MPE work is invisible outside the rank until the scheduler
// next observes something, so the charge only moves the rank's own clock
// (mpisim.Rank.Charge); the loop meets the calendar where it looks: a
// receive test, a flag due to be raised, a park, a reduction.
func (s *Rank) charge(p *sim.Process, d sim.Time, bucket *sim.Time, kind trace.Kind, step int, name string) {
	if d <= 0 {
		return
	}
	start := p.Now()
	s.mpi.Charge(p, d)
	*bucket += d
	s.cfg.Trace.Add(trace.Event{
		Rank: s.mpi.RankID(), Step: step, Kind: kind, Name: name,
		Start: start, End: p.Now(),
	})
}

// probeGangs records the current CPE-gang occupancy (slots with an
// offload in flight) on the flight recorder. Called wherever a slot's obj
// is set or cleared; a nil probe set makes it free.
func (s *Rank) probeGangs() {
	if s.cfg.Probes == nil {
		return
	}
	busy := 0
	for _, sl := range s.slots {
		if sl.obj != nil {
			busy++
		}
	}
	s.cfg.Probes.Gangs(s.cg.Engine().Now(), busy)
}
