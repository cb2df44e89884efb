// Package core is the public runtime API of the ported Uintah framework:
// users describe their problem as coarse tasks over a patch-decomposed
// grid (package taskgraph), and a SimulationController executes timesteps
// on a simulated Sunway TaihuLight — one MPI rank per core group, each
// running the Sunway-specific MPE/CPE scheduler of package scheduler.
//
// Two run modes share identical control flow: functional mode computes
// real field data (validated against reference solutions), timing-only
// mode executes the same scheduling, communication and cost accounting
// without allocating field storage, so the paper's 1024^3-cell experiments
// run on a laptop.
package core

import (
	"fmt"

	"sunuintah/internal/faults"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/mpisim"
	"sunuintah/internal/obs"
	"sunuintah/internal/perf"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

// Config selects the machine and scheduler configuration of a run.
type Config struct {
	// Cells is the global grid size; PatchCounts the patch layout (the
	// paper fixes 8x8x2 = 128 patches).
	Cells       grid.IVec
	PatchCounts grid.IVec
	// NumCGs is the number of core groups (MPI ranks).
	NumCGs int
	// Shards partitions the ranks into that many engine shards, advanced
	// in lookahead windows one after another on the caller's goroutine;
	// 0 (or 1) runs the classic serial engine. Results are bit-identical
	// for every value, which is clamped to NumCGs.
	// Plans that can crash a core group force serial execution (a crash is
	// an immediate global teardown, incompatible with lookahead).
	Shards int
	// Scheduler picks the variant (mode, SIMD, tile size, extensions).
	Scheduler scheduler.Config
	// Params is the machine model; zero value means perf.DefaultParams.
	Params *perf.Params
	// Balancer distributes patches over ranks (default Block).
	Balancer loadbalancer.Strategy
	// Faults, when non-nil and non-zero, injects deterministic faults into
	// the substrate (see package faults). Crash events only fire under
	// RunResilient, which also recovers from them.
	Faults *faults.Plan
	// Obs, when non-nil, attaches the flight recorder: virtual-time series
	// sampling across every layer plus overlap and roofline summaries in
	// Result.Obs. A reporting knob only — it never changes scheduling,
	// timing, or numerics, and the report is bit-identical across Shards
	// and host-parallelism settings.
	Obs *obs.Options
	// Progress, when non-nil, receives one event per rank per completed
	// timestep — the live feed behind sunserver's SSE endpoint. Step is
	// the 0-based global timestep; Done/Total count (rank, step) pairs
	// within the current Run segment; Seq and Dropped are left for the
	// bus. It is called from the simulation's rank processes, one at a
	// time, so it must be cheap; simulations that run at once (the runner
	// pool's) may share it, so it must be concurrency-safe. It can observe
	// the run but never affect it, and like Obs it stays outside the
	// runner's content hash.
	Progress func(obs.ProgressEvent)
}

// Problem is a user-defined simulation: its task list plus initial
// conditions and the timestep.
type Problem struct {
	Tasks []*taskgraph.Task
	// Initial supplies t=0 values for every label required from the old
	// warehouse (functional mode).
	Initial map[*taskgraph.Label]func(x, y, z float64) float64
	// InitialProfile optionally declares a label's initial condition
	// separable, the way taskgraph.Label.Profile does for its boundary
	// condition: Initial[l](x,y,z) == p(0,x)*p(1,y)*p(2,z) bit for bit,
	// multiplied left to right. Such a label's patches are filled from
	// nx+ny+nz profile evaluations each instead of one Initial call per
	// cell. Initial stays required for every label.
	InitialProfile map[*taskgraph.Label]func(axis int, s float64) float64
	// Dt is the (fixed, stability-chosen) timestep size.
	Dt float64
}

// Simulation is a configured run: grid, machine, communicator and one
// scheduler per rank. The level, the patch assignment and every rank's
// compiled graph are fixed from NewSimulation on.
type Simulation struct {
	Cfg     Config
	Prob    Problem
	Level   *grid.Level
	Machine *sw26010.Machine
	Comm    *mpisim.Comm
	Ranks   []*scheduler.Rank

	// eng is the serial engine, or shard 0's engine under sharding;
	// engs[r] is the engine that owns rank r (all aliases of eng when
	// serial) and shards is the coordinator (nil when serial).
	eng    *sim.Engine
	engs   []*sim.Engine
	shards *sim.ShardSet
	// stepsDone and timeDone track progress across multiple Run calls, so
	// a simulation can be advanced, checkpointed, and advanced further.
	stepsDone int
	timeDone  float64

	// Fault plane: the injector shared by the whole simulation, the armed
	// crash point (crashStep is 1-based; 0 means disarmed), and the crash
	// that tore the run down, if any.
	inj       *faults.Injector
	crashRank int
	crashStep int
	crashFrac float64
	crashed   *CrashError

	// sampler is the flight recorder (nil unless Cfg.Obs is set).
	sampler *obs.Sampler
}

// Result summarises a completed run.
type Result struct {
	Steps    int
	WallTime sim.Time // virtual time of the slowest rank
	// PerStep is WallTime / Steps, the paper's performance indicator.
	PerStep sim.Time
	// StepEnds[s] is the virtual time at which the slowest rank finished
	// step s.
	StepEnds []sim.Time
	// Counters aggregates the machine's hardware counters.
	Counters sw26010.Counters
	// Gflops is the floating-point rate over the run, counted like the
	// paper's Figure 9: CPE-counter flops (plus MPE kernel flops in host
	// mode) divided by wall time.
	Gflops float64
	// Efficiency is Gflops over the theoretical peak of the running CGs
	// (Figure 10).
	Efficiency float64
	// RankStats holds each rank's scheduler statistics.
	RankStats []scheduler.Stats
	// BytesOnWire is the total MPI traffic.
	BytesOnWire int64
	// PeakMemoryBytes is the largest per-CG field-memory high-water mark
	// observed so far (cumulative across segments).
	PeakMemoryBytes int64
	// Faults reports injected faults and recoveries; nil (and absent from
	// JSON) on fault-free runs.
	Faults *FaultReport `json:"Faults,omitempty"`
	// Obs is the flight-recorder report; nil (and absent from JSON) unless
	// Config.Obs was set.
	Obs *obs.Report `json:"Obs,omitempty"`
	// Trace is the run's event timeline in canonical order; populated only
	// when Config.Obs requests it (Options.Trace).
	Trace []trace.Event `json:"Trace,omitempty"`
}

// NewSimulation validates and assembles a run.
func NewSimulation(cfg Config, prob Problem) (*Simulation, error) {
	if cfg.NumCGs <= 0 {
		return nil, fmt.Errorf("core: NumCGs must be positive, got %d", cfg.NumCGs)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: Shards must be >= 0 (0 = serial engine), got %d", cfg.Shards)
	}
	if prob.Dt <= 0 {
		return nil, fmt.Errorf("core: Problem.Dt must be positive, got %v", prob.Dt)
	}
	if len(prob.Tasks) == 0 {
		return nil, fmt.Errorf("core: problem declares no tasks")
	}
	params := perf.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	level, err := grid.NewUnitCubeLevel(cfg.Cells, cfg.PatchCounts)
	if err != nil {
		return nil, err
	}
	assign, err := loadbalancer.AssignWithLayout(cfg.Balancer, level.Layout, cfg.NumCGs)
	if err != nil {
		return nil, err
	}
	if err := checkCarryForward(prob.Tasks); err != nil {
		return nil, err
	}

	// Resolve the effective shard count: never more shards than ranks, and
	// crash-capable plans run serial — a CG crash tears the whole run down
	// at one instant, a zero-lookahead global channel no window can cover.
	nShards := cfg.Shards
	if nShards > cfg.NumCGs {
		nShards = cfg.NumCGs
	}
	if cfg.Faults != nil && (cfg.Faults.Crash > 0 || cfg.Faults.CrashAtStep > 0) {
		nShards = 1
	}

	engs := make([]*sim.Engine, cfg.NumCGs)
	var shards *sim.ShardSet
	if nShards > 1 {
		shards = sim.NewShardSetLatencies(shardLatencies(params, cfg.NumCGs, nShards))
		for r := range engs {
			engs[r] = shards.Engine(r * nShards / cfg.NumCGs)
		}
	} else {
		eng := sim.NewEngine()
		for r := range engs {
			engs[r] = eng
		}
	}
	machine := sw26010.NewMachineWithEngines(engs, params)
	comm := mpisim.NewComm(engs[0], params, cfg.NumCGs)
	if shards != nil {
		comm.Shard(shards, engs)
	}

	// Attach the flight recorder before the schedulers are built: each CG,
	// the communicator and each rank's scheduler get their own per-rank
	// probe set, so every hook fires from that rank's engine events and the
	// sampled series stay bit-identical under sharding. An observed run
	// always records a trace (the overlap report needs the intervals).
	var sampler *obs.Sampler
	if cfg.Obs != nil {
		if cfg.Scheduler.Trace == nil {
			cfg.Scheduler.Trace = trace.New()
		}
		sampler = obs.NewSampler(cfg.NumCGs)
		for i := 0; i < cfg.NumCGs; i++ {
			machine.CG(i).Probes = sampler.Rank(i)
		}
		comm.SetObs(sampler)
	}

	s := &Simulation{
		Cfg: cfg, Prob: prob, Level: level,
		Machine: machine, Comm: comm,
		eng: engs[0], engs: engs, shards: shards,
		sampler: sampler,
	}
	// Attach the fault plane before the schedulers are built (they capture
	// their core group's injector at construction).
	s.inj = faults.NewInjector(cfg.Faults)
	if s.inj != nil {
		for i := 0; i < cfg.NumCGs; i++ {
			machine.CG(i).Faults = s.inj
		}
		comm.SetFaults(s.inj, cfg.Scheduler.Trace)
	}
	for r := 0; r < cfg.NumCGs; r++ {
		g, err := taskgraph.Compile(level, prob.Tasks, assign, r)
		if err != nil {
			return nil, err
		}
		sc := cfg.Scheduler
		sc.Probes = sampler.Rank(r)
		rk, err := scheduler.New(sc, g, machine.CG(r), comm.Rank(r))
		if err != nil {
			return nil, err
		}
		s.Ranks = append(s.Ranks, rk)
	}
	if err := s.allocateInitial(); err != nil {
		return nil, err
	}
	return s, nil
}

// shardLatencies builds the per-shard-pair lookahead matrix for a
// contiguous partition of nCGs ranks into nShards: entry [sa][sb] is the
// minimum virtual latency of any zero-byte message from a rank in shard sa
// to a rank in shard sb. No interaction from sa — delivery, duplicate,
// collective completion — can take effect at sb sooner, which is what lets
// sb run that far past sa's clock alone. Pairs of shards whose ranks sit on
// distinct nodes keep the full link latency even when some other shard
// pair shares a node, so uneven partitions stop throttling everyone to the
// single global minimum.
func shardLatencies(params perf.Params, nCGs, nShards int) [][]sim.Time {
	lat := make([][]sim.Time, nShards)
	for i := range lat {
		lat[i] = make([]sim.Time, nShards)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = sim.Infinity
			}
		}
	}
	for a := 0; a < nCGs; a++ {
		sa := a * nShards / nCGs
		for b := 0; b < nCGs; b++ {
			sb := b * nShards / nCGs
			if sa == sb {
				continue
			}
			if w := sim.Time(params.MessageTimeBetween(a, b, 0)); w < lat[sa][sb] {
				lat[sa][sb] = w
			}
		}
	}
	return lat
}

// now returns the current virtual time (the global maximum under
// sharding; segments start and end with every shard aligned).
func (s *Simulation) now() sim.Time {
	if s.shards != nil {
		return s.shards.Now()
	}
	return s.eng.Now()
}

// drive runs the engine(s) until the spawned work completes. Under
// sharding the shards' clocks are re-aligned afterwards so the next
// segment starts every rank at the same instant, as the serial engine
// does.
func (s *Simulation) drive() {
	if s.shards != nil {
		s.shards.Run()
		s.shards.AlignNow()
		return
	}
	s.eng.Run()
}

// stopFrom stops the run from inside p's executing event: p's own engine
// immediately, the sibling shards at the next window barrier.
func (s *Simulation) stopFrom(p *sim.Process) {
	p.Engine().Stop()
	if s.shards != nil {
		s.shards.RequestStop()
	}
}

// checkCarryForward enforces the supported warehouse discipline: every
// label a task requires from the old warehouse must be computed into the
// new warehouse each step, or it would vanish at the swap.
func checkCarryForward(tasks []*taskgraph.Task) error {
	computed := map[*taskgraph.Label]bool{}
	for _, t := range tasks {
		for _, d := range t.Computes {
			computed[d.Label] = true
		}
	}
	for _, t := range tasks {
		for _, d := range t.Requires {
			if d.DW == taskgraph.OldDW && !computed[d.Label] {
				return fmt.Errorf("core: task %q requires %q from the old warehouse but no task recomputes it (carry-forward is not supported)",
					t.Name, d.Label.Name())
			}
		}
	}
	return nil
}

// allocateInitial creates the t=0 old-warehouse variables on every rank
// and, in functional mode, fills their interiors from the problem's
// initial conditions. Allocation failures reproduce the paper's Table III
// memory errors.
func (s *Simulation) allocateInitial() error {
	// A label is needed on a patch only where some task requiring it from
	// the old warehouse actually runs — patch-filtered tasks (mixed
	// physics) keep foreign patches unallocated.
	needed := map[*taskgraph.Label][]*taskgraph.Task{}
	for _, t := range s.Prob.Tasks {
		for _, d := range t.Requires {
			if d.DW == taskgraph.OldDW {
				needed[d.Label] = append(needed[d.Label], t)
			}
		}
	}
	for _, rk := range s.Ranks {
		for _, l := range rk.Graph().Labels {
			requirers := needed[l]
			if len(requirers) == 0 {
				continue
			}
			for _, p := range rk.Graph().LocalPatches {
				applies := false
				for _, t := range requirers {
					if t.AppliesTo(p.ID) {
						applies = true
						break
					}
				}
				if !applies {
					continue
				}
				if err := rk.DWs.Old.Allocate(l, p, rk.Graph().GhostWidth(l)); err != nil {
					return err
				}
				if !s.Cfg.Scheduler.Functional {
					continue
				}
				init := s.Prob.Initial[l]
				if init == nil {
					return fmt.Errorf("core: no initial condition for label %q", l.Name())
				}
				f := rk.DWs.Old.Get(l, p)
				lv := s.Level
				if profile := s.Prob.InitialProfile[l]; profile != nil {
					f.FillSeparable(p.Box, lv, profile)
					continue
				}
				f.FillFunc(p.Box, func(c grid.IVec) float64 {
					x, y, z := lv.CellCenter(c)
					return init(x, y, z)
				})
			}
		}
	}
	return nil
}

// Run executes nSteps further timesteps and returns the result for this
// segment. Each rank runs as its own simulated MPE process; ranks
// synchronise only through their MPI dependencies, exactly as on the
// machine. Run may be called repeatedly (interleaved with checkpointing);
// step numbering and simulated time carry across calls.
func (s *Simulation) Run(nSteps int) (*Result, error) {
	if nSteps <= 0 {
		return nil, fmt.Errorf("core: nSteps must be positive")
	}
	firstStep := s.stepsDone
	segmentStart := s.now()
	countersBefore := s.Machine.TotalCounters()
	var bytesBefore int64
	for r := range s.Ranks {
		bytesBefore += s.Comm.Rank(r).BytesSent
	}
	stepEnds := make([][]sim.Time, len(s.Ranks))
	var firstErr error
	var progDone int64
	progTotal := int64(nSteps) * int64(len(s.Ranks))
	for r, rk := range s.Ranks {
		r, rk := r, rk
		stepEnds[r] = make([]sim.Time, nSteps)
		s.engs[r].Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Process) {
			t := s.timeDone
			// crashEv is an armed whole-CG crash of this rank: it fires a
			// plan-drawn fraction of a step duration into the crash step
			// and interrupts the entire engine (the failure takes the job
			// down, as on the machine). prevDur estimates the step length.
			// Crash-capable plans force serial execution (NewSimulation),
			// so p's engine is the engine here.
			var crashEv sim.EventHandle
			var prevDur sim.Time
			for i := 0; i < nSteps; i++ {
				if p.Engine().Stopped() {
					return
				}
				step := firstStep + i
				if s.crashStep > 0 && r == s.crashRank && step == s.crashStep-1 {
					s.crashStep = 0 // arm at most once
					crashStep := step
					delay := sim.Time(s.crashFrac) * prevDur
					crashEv = s.eng.Schedule(delay, func() {
						if s.crashed != nil {
							return
						}
						s.crashed = &CrashError{
							Rank: r, Step: crashStep + 1,
							At:      s.eng.Now(),
							Elapsed: s.eng.Now() - segmentStart,
						}
						if s.Cfg.Scheduler.Trace != nil {
							s.Cfg.Scheduler.Trace.Add(trace.Event{Rank: r, Step: crashStep,
								Kind: trace.KindFault, Name: "cg-crash",
								Start: s.eng.Now(), End: s.eng.Now()})
						}
						s.eng.Interrupt(s.crashed.Error())
					})
				}
				stepStart := p.Now()
				if err := rk.ExecuteStep(p, step, t, s.Prob.Dt); err != nil {
					// Fail at the rank's clock, so the first error in virtual
					// time is the one reported.
					p.Sync()
					if firstErr == nil {
						firstErr = fmt.Errorf("rank %d step %d: %w", r, step, err)
					}
					s.stopFrom(p)
					return
				}
				prevDur = p.Now() - stepStart
				stepEnds[r][i] = p.Now()
				if s.Cfg.Progress != nil {
					progDone++
					s.Cfg.Progress(obs.ProgressEvent{
						Rank: r, Step: step, Steps: nSteps,
						Done: progDone, Total: progTotal,
						VirtualSeconds: float64(p.Now()),
					})
				}
				t += s.Prob.Dt
			}
			// The rank outran its armed crash: a CG that finished its work
			// cannot crash mid-step any more.
			crashEv.Cancel()
		})
	}
	// However the run ends, no tile numerics outlive it (scheduler.Rank.Drain).
	defer func() {
		for _, rk := range s.Ranks {
			rk.Drain()
		}
	}()
	s.drive()
	if s.crashed != nil {
		return nil, s.crashed
	}
	if firstErr != nil {
		return nil, firstErr
	}
	s.stepsDone += nSteps
	s.timeDone += float64(nSteps) * s.Prob.Dt

	res := &Result{Steps: nSteps}
	res.StepEnds = make([]sim.Time, nSteps)
	for step := 0; step < nSteps; step++ {
		for r := range s.Ranks {
			if stepEnds[r][step] > res.StepEnds[step] {
				res.StepEnds[step] = stepEnds[r][step]
			}
		}
	}
	res.WallTime = res.StepEnds[nSteps-1] - segmentStart
	res.Counters = s.Machine.TotalCounters().Sub(countersBefore)
	for r := range s.Ranks {
		res.BytesOnWire += s.Comm.Rank(r).BytesSent
		if pk := s.Machine.CG(r).PeakBytes(); pk > res.PeakMemoryBytes {
			res.PeakMemoryBytes = pk
		}
	}
	res.BytesOnWire -= bytesBefore
	res.Faults = s.faultReport()
	s.fold(res)
	return res, nil
}

// fold completes a result from its Steps, WallTime and Counters: the
// per-step time, the floating-point rate and efficiency, each rank's
// scheduler statistics and the flight recorder.
func (s *Simulation) fold(res *Result) {
	if res.Steps > 0 {
		res.PerStep = res.WallTime / sim.Time(res.Steps)
	}
	flops := float64(res.Counters.Flops + res.Counters.MPEFlops)
	if res.WallTime > 0 {
		res.Gflops = flops / float64(res.WallTime) / 1e9
	}
	res.Efficiency = res.Gflops * 1e9 / s.Machine.PeakFlops()
	for _, rk := range s.Ranks {
		res.RankStats = append(res.RankStats, rk.Stats)
	}
	s.attachObs(res)
}

// attachObs folds the flight recorder into a result: the sampled series
// finalized at the current (globally aligned) virtual time, the trace
// overlap statistics, the roofline placement, and — when requested — the
// canonical event timeline. No-op without Config.Obs.
func (s *Simulation) attachObs(res *Result) {
	if s.sampler == nil || s.Cfg.Obs.HooksOnly {
		return
	}
	rep := s.sampler.Report(s.now())
	// One snapshot of the recorder feeds the whole report: the canonical
	// (sorted) timeline is what the trace export, the overlap statistics
	// and the critical path all walk, so they inherit the trace's
	// byte-identity across shard and worker settings.
	sorted := s.Cfg.Scheduler.Trace.Events()
	trace.SortEvents(sorted)
	rep.AddOverlap(sorted, s.Cfg.NumCGs)
	rep.AddRoofline(s.Machine.Params.CGRoofline(), res.Gflops, res.Efficiency)
	rep.AddCriticalPath(sorted, 5)
	res.Obs = rep
	if s.Cfg.Obs.Trace {
		res.Trace = sorted
	}
}

// GatherField assembles the global field of a label from every rank's old
// warehouse (the state after the final swap). Functional mode only.
func (s *Simulation) GatherField(l *taskgraph.Label) (*field.Cell, error) {
	if !s.Cfg.Scheduler.Functional {
		return nil, fmt.Errorf("core: GatherField requires functional mode")
	}
	out := field.NewCell(s.Level.Layout.Domain)
	for _, rk := range s.Ranks {
		for _, p := range rk.Graph().LocalPatches {
			// Patch-filtered tasks (mixed physics) leave the label
			// unallocated on foreign patches; those cells stay zero.
			if !rk.DWs.Old.Exists(l, p) {
				continue
			}
			f := rk.DWs.Old.Get(l, p)
			out.CopyRegion(f, p.Box)
		}
	}
	return out, nil
}
