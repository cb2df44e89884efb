package scheduler

import (
	"fmt"

	"sunuintah/internal/faults"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

// This file is the scheduler's recovery layer under fault injection: every
// offload carries a deadline derived from its healthy-cost estimate; a
// deadline miss (an injected stall, or a straggler beyond the deadline
// factor) aborts the gang and retries with exponential backoff; gangs that
// keep failing are marked unhealthy and their kernels degrade to MPE
// execution, so the rank always makes progress. Without an injector the
// deadline is Infinity, so fault-free runs never reach the recovery paths;
// they share only syncOffloadWait, the synchronous mode's one wait.

// mark emits a zero-duration fault-plane trace marker.
func (s *Rank) mark(step int, kind trace.Kind, name string, at sim.Time) {
	s.cfg.Trace.Add(trace.Event{Rank: s.mpi.RankID(), Step: step, Kind: kind,
		Name: name, Start: at, End: at})
}

// handleOffloadTimeout aborts a slot's overdue offload and either schedules
// a backed-off retry or degrades the task to the MPE.
func (s *Rank) handleOffloadTimeout(p *sim.Process, step int, t, dt float64, sl *slot, completed *int) error {
	now := p.Now()
	obj := sl.obj
	fs := s.faultStats()
	fs.OffloadTimeouts++
	estimate := sl.off.Estimate
	sl.off.Abort()
	sl.off = nil
	sl.obj = nil
	s.probeGangs()
	sl.flag.Reset()
	sl.attempts++
	sl.consecFails++
	s.cfg.Probes.Fault(now)
	s.mark(step, trace.KindFault, fmt.Sprintf("offload-timeout %s try=%d", obj.Task.Name, sl.attempts), now)

	if !sl.unhealthy && sl.consecFails >= faults.UnhealthyAfter {
		// The gang failed too many offloads in a row: take it out of
		// rotation for the rest of the run.
		sl.unhealthy = true
		fs.UnhealthyGangs++
		s.mark(step, trace.KindFault, "gang-unhealthy", now)
	}
	if sl.unhealthy || sl.attempts > faults.MaxRetries {
		sl.attempts = 0
		return s.fallbackToMPE(p, step, t, dt, obj, completed)
	}
	// Exponential backoff from half the healthy estimate.
	backoff := estimate / 2 * sim.Time(int64(1)<<uint(sl.attempts-1))
	sl.pending = obj
	sl.retryAt = now + backoff
	return nil
}

// retryPending relaunches a slot's aborted object once its backoff expires.
func (s *Rank) retryPending(p *sim.Process, step int, t, dt float64, sl *slot) error {
	obj := sl.pending
	sl.pending = nil
	fs := s.faultStats()
	fs.Reoffloads++
	s.cfg.Probes.Recovery(p.Now())
	s.mark(step, trace.KindRecovery, fmt.Sprintf("re-offload %s try=%d", obj.Task.Name, sl.attempts+1), p.Now())
	return s.offload(p, step, t, dt, obj, sl)
}

// fallbackToMPE executes a kernel object on the MPE — graceful degradation
// when a gang is unhealthy or an offload has exhausted its retries. The
// MPE path recomputes the task from the same warehouse inputs, so the
// numerics match the offloaded kernel exactly.
func (s *Rank) fallbackToMPE(p *sim.Process, step int, t, dt float64, obj *taskgraph.Object, completed *int) error {
	fs := s.faultStats()
	fs.MPEFallbacks++
	s.cfg.Probes.Recovery(p.Now())
	s.mark(step, trace.KindRecovery, fmt.Sprintf("mpe-fallback %s", obj.Task.Name), p.Now())
	if err := s.runOnMPE(p, step, t, dt, obj); err != nil {
		return err
	}
	s.completeObject(obj, completed)
	return nil
}

// syncOffloadWait is the synchronous mode's wait: the MPE spins on the
// offload's completion flag, overlapping nothing (Section V-C), and the
// spin is one "spin" span in the trace. Under fault injection the wait
// ends at the offload's deadline too: the gang is aborted and the kernel
// is retried (after backoff, still blocking, as the synchronous scheduler
// cannot do anything else) or degraded to the MPE.
func (s *Rank) syncOffloadWait(p *sim.Process, step int, t, dt float64, sl *slot, completed *int) error {
	n := int64(sl.group.NumCPEs())
	for {
		t0 := p.Now()
		p.Sync()
		if sl.flag.Value() < n {
			sl.flag.NotifyAt(p, n)
			p.Park(sl.deadline)
		}
		s.Stats.KernelWaitTime += p.Now() - t0
		s.cfg.Trace.Add(trace.Event{Rank: s.mpi.RankID(), Step: step,
			Kind: trace.KindKernel, Name: s.note("spin ", sl.obj.Task.Name),
			Start: t0, End: p.Now()})
		if sl.flag.Value() >= n {
			s.completeObject(sl.obj, completed)
			s.clearSlot(sl)
			return nil
		}
		if err := s.handleOffloadTimeout(p, step, t, dt, sl, completed); err != nil {
			return err
		}
		if sl.pending == nil {
			return nil // degraded to the MPE inside handleOffloadTimeout
		}
		if wait := sl.retryAt - p.Now(); wait > 0 {
			s.charge(p, wait, &s.Stats.IdleTime, trace.KindIdle, step, "retry backoff")
		}
		if err := s.retryPending(p, step, t, dt, sl); err != nil {
			return err
		}
	}
}

// clearSlot resets a slot's per-offload state after completion.
func (s *Rank) clearSlot(sl *slot) {
	sl.obj = nil
	sl.off = nil
	sl.attempts = 0
	sl.consecFails = 0
	s.probeGangs()
}
