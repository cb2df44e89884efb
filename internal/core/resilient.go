package core

import (
	"errors"
	"fmt"

	"sunuintah/internal/faults"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
)

// CrashError reports a simulated whole-core-group failure: the engine was
// interrupted mid-run, and the simulation (parked process goroutines
// included) is dead. Recover by rebuilding and restoring a checkpoint —
// which is exactly what RunResilient does.
type CrashError struct {
	Rank int      // the core group that died
	Step int      // 1-based step during which it died
	At   sim.Time // absolute virtual time of the crash
	// Elapsed is the virtual time this run segment had consumed when the
	// crash hit — the work lost since the last checkpoint.
	Elapsed sim.Time
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("core: CG %d crashed during step %d (t=%.6fs, %.6fs of work lost)",
		e.Rank, e.Step, float64(e.At), float64(e.Elapsed))
}

// RecoveryStats summarises a resilient run's checkpoint/restart activity.
type RecoveryStats struct {
	Crashes     int // injected CG crashes that tore a run segment down
	Restarts    int // successful restarts from a checkpoint
	Checkpoints int // checkpoints taken
	// Overheads are included in the run's WallTime.
	CheckpointOverhead sim.Time // virtual time spent writing checkpoints
	RestartOverhead    sim.Time // virtual time spent rebuilding after crashes
	LostWork           sim.Time // virtual time of work redone after crashes
	// Recovered is false when the run exhausted MaxRestarts and gave up
	// (the Result then covers only the completed steps).
	Recovered bool
}

// FaultReport aggregates everything the fault plane injected into a run
// and everything the runtime did to survive it.
type FaultReport struct {
	// Injected counts the faults drawn by the injector.
	Injected faults.Counts
	// Interconnect recovery (summed over ranks).
	Resends       int64
	DupsDiscarded int64
	// Scheduler recovery (summed over ranks).
	OffloadTimeouts int64
	Reoffloads      int64
	MPEFallbacks    int64
	UnhealthyGangs  int64
	// Recovery covers checkpoint/restart; nil outside RunResilient.
	Recovery *RecoveryStats `json:"Recovery,omitempty"`
}

// add accumulates another report's injection and recovery counters
// (Recovery is managed by the caller).
func (f *FaultReport) add(other *FaultReport) {
	if other == nil {
		return
	}
	f.Injected.Add(other.Injected)
	f.Resends += other.Resends
	f.DupsDiscarded += other.DupsDiscarded
	f.OffloadTimeouts += other.OffloadTimeouts
	f.Reoffloads += other.Reoffloads
	f.MPEFallbacks += other.MPEFallbacks
	f.UnhealthyGangs += other.UnhealthyGangs
}

// faultReport snapshots the simulation's cumulative fault activity, or nil
// without an injector (keeping fault-free results byte-identical).
func (s *Simulation) faultReport() *FaultReport {
	if s.inj == nil {
		return nil
	}
	fr := &FaultReport{Injected: s.inj.Counts}
	for r, rk := range s.Ranks {
		mr := s.Comm.Rank(r)
		fr.Resends += mr.Resends
		fr.DupsDiscarded += mr.DupsDiscarded
		if fs := rk.Stats.Faults; fs != nil {
			fr.OffloadTimeouts += fs.OffloadTimeouts
			fr.Reoffloads += fs.Reoffloads
			fr.MPEFallbacks += fs.MPEFallbacks
			fr.UnhealthyGangs += fs.UnhealthyGangs
		}
	}
	return fr
}

// armCrash schedules a whole-CG crash: rank dies during 1-based step step1,
// frac of a step duration in. The next Run segment containing that step
// fires it.
func (s *Simulation) armCrash(rank, step1 int, frac float64) {
	s.crashRank = rank
	s.crashStep = step1
	s.crashFrac = frac
}

// armCrashFromPlan draws this incarnation's crash point from the plan.
// An explicit CrashAtStep fires only in incarnation 0 (the restarted run
// resumes before the crash step, and deterministically re-crashing forever
// would make recovery impossible — on the machine the restarted job runs on
// a fresh node). Rate-drawn crashes re-draw per incarnation with the
// incarnation-derived stream, skipping draws that land on already-completed
// steps; repeated crashes stay possible, which is the recovered-versus-lost
// signal the chaos artifact measures.
func (s *Simulation) armCrashFromPlan(nSteps, incarnation int) {
	if s.inj == nil {
		return
	}
	plan := s.inj.Plan()
	if plan.CrashAtStep > 0 {
		if incarnation == 0 {
			rank, step, frac, ok := s.inj.CrashPoint(nSteps, s.Cfg.NumCGs)
			if ok {
				s.armCrash(rank, step, frac)
			}
		}
		return
	}
	rank, step, frac, ok := s.inj.CrashPoint(nSteps, s.Cfg.NumCGs)
	if ok && step > s.stepsDone {
		s.armCrash(rank, step, frac)
	}
}

// fastForward restores a timing-only simulation's progress markers (the
// timing-only analogue of RestoreFromMemory: there is no field data to
// reload, only the step counter and time level).
func (s *Simulation) fastForward(steps int, time float64) {
	s.stepsDone = steps
	s.timeDone = time
}

// incarnationStride separates the fault streams of successive restart
// incarnations (the restarted job runs on fresh hardware and draws a fresh
// fault history).
const incarnationStride = 0x9e3779b9

// RunResilient executes nSteps of the problem under the configuration's
// fault plan with checkpoint/restart: progress is checkpointed every
// faults.CheckpointEvery steps, an injected CG crash tears the simulation
// down (CrashError), and the run rebuilds from the last checkpoint — in
// functional mode through the DataWarehouse checkpoint archive, in
// timing-only mode by fast-forwarding the progress markers — until the run
// completes or faults.MaxRestarts is exhausted. The returned Result covers
// the whole run; WallTime includes checkpoint, restart, and lost-work
// overhead, and Result.Faults.Recovery tells the recovery story.
//
// With a nil or zero fault plan this is exactly NewSimulation + Run.
func RunResilient(cfg Config, prob Problem, nSteps int) (*Result, error) {
	res, _, err := runResilient(cfg, prob, nSteps)
	return res, err
}

// runResilient additionally returns the final incarnation's simulation,
// for callers (tests) that inspect warehouse state after recovery.
func runResilient(cfg Config, prob Problem, nSteps int) (*Result, *Simulation, error) {
	if cfg.Faults.Zero() {
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			return nil, nil, err
		}
		res, err := s.Run(nSteps)
		return res, s, err
	}
	if nSteps <= 0 {
		return nil, nil, fmt.Errorf("core: nSteps must be positive")
	}

	// build constructs incarnation inc resumed at the given progress (ckpt
	// is the in-memory checkpoint; nil before the first one).
	build := func(inc, stepsDone int, timeDone float64, ckpt *MemCheckpoint) (*Simulation, error) {
		c := cfg
		fp := *cfg.Faults
		fp.Seed += uint64(inc) * incarnationStride
		c.Faults = &fp
		s, err := NewSimulation(c, prob)
		if err != nil {
			return nil, err
		}
		if stepsDone > 0 {
			if cfg.Scheduler.Functional {
				if err := s.RestoreFromMemory(ckpt); err != nil {
					return nil, err
				}
			} else {
				s.fastForward(stepsDone, timeDone)
			}
		}
		s.armCrashFromPlan(nSteps, inc)
		return s, nil
	}

	rec := &RecoveryStats{Recovered: true}
	merged := &FaultReport{Recovery: rec}
	var (
		wall        sim.Time
		stepEnds    []sim.Time
		counters    sw26010.Counters
		bytesOnWire int64
		peakMem     int64
	)
	stepsDone := 0
	timeDone := 0.0
	restarts := 0
	inc := 0
	var ckpt *MemCheckpoint

	s, err := build(inc, stepsDone, timeDone, ckpt)
	if err != nil {
		return nil, nil, err
	}

	for stepsDone < nSteps {
		seg := faults.CheckpointEvery
		if remaining := nSteps - stepsDone; seg > remaining {
			seg = remaining
		}
		res, err := s.Run(seg)
		var ce *CrashError
		if errors.As(err, &ce) {
			rec.Crashes++
			rec.LostWork += ce.Elapsed
			wall += ce.Elapsed
			merged.add(s.faultReport()) // the dead incarnation's tally
			if restarts >= faults.MaxRestarts {
				rec.Recovered = false
				break
			}
			restarts++
			rec.Restarts++
			rec.RestartOverhead += faults.RestartCost
			wall += faults.RestartCost
			inc++
			s, err = build(inc, stepsDone, timeDone, ckpt)
			if err != nil {
				return nil, nil, err
			}
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		// Successful segment: fold it into the run-level result. Segment
		// step ends are engine-absolute; re-base them onto the accumulated
		// wall clock.
		segStart := res.StepEnds[len(res.StepEnds)-1] - res.WallTime
		for _, e := range res.StepEnds {
			stepEnds = append(stepEnds, wall+(e-segStart))
		}
		wall += res.WallTime
		counters.Add(res.Counters)
		bytesOnWire += res.BytesOnWire
		if res.PeakMemoryBytes > peakMem {
			peakMem = res.PeakMemoryBytes
		}
		stepsDone += seg
		timeDone += float64(seg) * prob.Dt
		if stepsDone < nSteps {
			if cfg.Scheduler.Functional {
				c, err := s.Checkpoint()
				if err != nil {
					return nil, nil, err
				}
				ckpt = c
			}
			rec.Checkpoints++
			rec.CheckpointOverhead += faults.CheckpointCost
			wall += faults.CheckpointCost
		}
	}

	merged.add(s.faultReport()) // the surviving incarnation's tally

	out := &Result{Steps: stepsDone, WallTime: wall, StepEnds: stepEnds,
		Counters: counters, BytesOnWire: bytesOnWire, PeakMemoryBytes: peakMem,
		Faults: merged}
	// The surviving incarnation's ranks and flight recorder cover every step
	// that made it into the folded result (crashed segments' work was redone).
	s.fold(out)
	return out, s, nil
}
