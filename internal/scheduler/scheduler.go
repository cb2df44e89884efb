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
	// sampling at zero cost. It is a reporting knob only: it never
	// changes the simulated outcome and never enters the runner's spec
	// hash.
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
	mpi    *mpisim.Rank
	DWs    *dw.Pair

	// inj mirrors cg.Faults; nil on fault-free runs. offload arms a finite
	// deadline only with it, so without one no recovery path is reached.
	inj *faults.Injector

	// recvReqs and sendReqs are the persistent requests of graph.Recvs and
	// graph.Sends, index for index, started once a step; nil until the
	// first step makes them (initRequests).
	recvReqs, sendReqs []mpisim.Request
	// Per-step communication state: the started receives and sends not
	// yet observed complete, in starting order.
	recvs []pendingRecv
	sends []*mpisim.Request
	// notes interns "prefix + label" trace annotations: the step loop
	// emits the same few dozen strings every step, and building them once
	// keeps the steady-state loop free of string allocation.
	notes map[noteKey]string

	// slots are the offload lanes (one per CPE group).
	slots []*slot
	// workers is how many queue workers the rank's launches may keep
	// running besides the ranks that help while they wait.
	workers int
	// plans caches each patch's tile plan from its first offload on.
	plans map[planKey]*tilePlan
	// bufs is runTile's per-tile scratch, and ins and outs gatherIO's;
	// all three are rewound, not reallocated, from one use to the next.
	bufs      []*athread.LDMBuf
	ins, outs []ioVar
	// prepared queues objects whose MPE part was processed ahead of time
	// while the CPEs were busy (asynchronous mode's work-ahead).
	prepared []*taskgraph.Object

	Stats Stats
}

type noteKey struct{ prefix, name string }

// note returns the interned concatenation prefix+name, or "" when there is
// no trace to carry it.
func (s *Rank) note(prefix, name string) string {
	if s.cfg.Trace == nil {
		return ""
	}
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
	edge *taskgraph.Edge
	req  *mpisim.Request
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
	mode := dw.TimingOnly
	if cfg.Functional {
		mode = dw.Functional
	}
	s := &Rank{
		cfg:    cfg,
		params: cg.Params,
		graph:  graph,
		cg:     cg,
		mpi:    mpi,
		DWs:    dw.NewPair(mode, cg),
		// The numeric bodies of an offload's tiles run behind the simulated
		// gang, the software analogue of the CPEs computing tiles in
		// parallel while the MPE goes on: one CPU is left to the rank
		// loop, which runs queued tiles whenever it waits. Tile outputs are disjoint,
		// so results are byte-identical for every width.
		workers: runtime.GOMAXPROCS(0) - 1,
	}
	s.inj = cg.Faults
	s.initSlots()
	return s, nil
}

// initRequests makes the rank's persistent requests, one per edge. The
// first step makes them, not New: a simulation that never steps pays
// nothing, and building a simulation costs what it did when every step
// took its requests from a pool.
func (s *Rank) initRequests() {
	g := s.graph
	s.recvReqs = make([]mpisim.Request, len(g.Recvs))
	for i, e := range g.Recvs {
		s.mpi.RecvInit(&s.recvReqs[i], e.SrcRank, int(e.Chan))
	}
	s.sendReqs = make([]mpisim.Request, len(g.Sends))
	for i, e := range g.Sends {
		s.mpi.SendInit(&s.sendReqs[i], e.DstRank, int(e.Chan), e.Bytes)
	}
}

// Drain runs or waits out every tile still queued or computing for the
// rank's slots. Only a failed run (a crash, an error on some rank) leaves
// one, and a kernel panic it finds goes with that run.
func (s *Rank) Drain() {
	for _, sl := range s.slots {
		sl.job.help()
		sl.job.panicked.Store(nil)
	}
}

// Graph returns the rank's compiled task graph.
func (s *Rank) Graph() *taskgraph.Graph { return s.graph }

// charge advances the process by d and attributes it to a stats bucket and
// the trace. MPE work is invisible outside the rank until the scheduler
// next observes something, so the charge only moves the rank's own clock
// (mpisim.Rank.Charge); the loop meets the calendar where it looks: a
// receive test, a flag due to be raised, a park, a reduction. It runs for
// every MPE charge, so with no trace it builds no event.
func (s *Rank) charge(p *sim.Process, d sim.Time, bucket *sim.Time, kind trace.Kind, step int, name string) {
	if d <= 0 {
		return
	}
	start := p.Now()
	s.mpi.Charge(p, d)
	*bucket += d
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			Rank: s.mpi.RankID(), Step: step, Kind: kind, Name: name,
			Start: start, End: p.Now(),
		})
	}
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
