package core

import (
	"fmt"

	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/mpisim"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
)

// Rebalance redistributes patches according to newAssign between Run
// segments: every migrating patch's old-warehouse variables travel over
// the simulated MPI to their new owner (costed in virtual time like any
// other communication), the per-rank task graphs are recompiled, and the
// next Run continues from the same step count. This is the "load
// balancing ... as appropriate, then continue to next timestep" step of
// the paper's scheduler (Section V-C step 4).
func (s *Simulation) Rebalance(newAssign []int) error {
	layout := s.Level.Layout
	if len(newAssign) != layout.NumPatches() {
		return fmt.Errorf("core: assignment covers %d patches, layout has %d",
			len(newAssign), layout.NumPatches())
	}
	for p, r := range newAssign {
		if r < 0 || r >= len(s.Ranks) {
			return fmt.Errorf("core: patch %d assigned to invalid rank %d", p, r)
		}
	}

	labels, err := s.persistentLabels()
	if err != nil {
		return err
	}

	type move struct {
		patchID  int
		labelIdx int
		from, to int
	}
	var moves []move
	for p, newOwner := range newAssign {
		if oldOwner := s.assign[p]; oldOwner != newOwner {
			for li := range labels {
				moves = append(moves, move{p, li, s.assign[p], newOwner})
			}
		}
	}

	// Execute the migration in virtual time: one process per rank posts
	// its receives, packs and sends its outgoing patches, then unpacks.
	// Migration tags live in the negative tag space so they can never
	// collide with timestep ghost tags.
	tagOf := func(m move) int { return -(1 + m.patchID*len(labels) + m.labelIdx) }
	var firstErr error
	fail := func(p *sim.Process, err error) {
		s.runMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		s.runMu.Unlock()
		s.stopFrom(p)
	}
	for r, rk := range s.Ranks {
		r, rk := r, rk
		s.engs[r].Spawn(fmt.Sprintf("migrate%d", r), func(p *sim.Process) {
			params := rk.CoreGroup().Params
			type pendingIn struct {
				m   move
				req *mpisim.Request
			}
			var incoming []pendingIn
			for _, m := range moves {
				if m.to != r {
					continue
				}
				req := s.Comm.Rank(r).Irecv(p, m.from, tagOf(m))
				incoming = append(incoming, pendingIn{m, req})
			}
			for _, m := range moves {
				if m.from != r {
					continue
				}
				patch := layout.Patch(m.patchID)
				label := labels[m.labelIdx]
				bytes := patch.NumCells() * 8
				var payload []float64
				if s.Cfg.Scheduler.Functional {
					payload = rk.DWs.Old.Get(label, patch).Pack(patch.Box, nil)
				}
				p.Sleep(sim.Time(params.LocalCopyTime(bytes)))
				s.Comm.Rank(r).Isend(p, m.to, tagOf(m), payload, bytes)
			}
			for _, in := range incoming {
				s.Comm.Rank(r).Wait(p, in.req)
				patch := layout.Patch(in.m.patchID)
				label := labels[in.m.labelIdx]
				if err := rk.DWs.Old.Allocate(label, patch, rk.MaxGhost(label)); err != nil {
					fail(p, fmt.Errorf("core: migrating patch %d to rank %d: %w", in.m.patchID, r, err))
					return
				}
				bytes := patch.NumCells() * 8
				p.Sleep(sim.Time(params.TouchTime(bytes) + params.LocalCopyTime(bytes)))
				if s.Cfg.Scheduler.Functional {
					rest := rk.DWs.Old.Get(label, patch).Unpack(patch.Box, in.req.Payload())
					if len(rest) != 0 {
						fail(p, fmt.Errorf("core: migration payload mismatch for patch %d", in.m.patchID))
						return
					}
				}
			}
			// Free the variables this rank shipped away.
			for _, m := range moves {
				if m.from == r {
					rk.DWs.Old.Free(labels[m.labelIdx], layout.Patch(m.patchID))
				}
			}
		})
	}
	s.drive()
	if firstErr != nil {
		return firstErr
	}

	// Recompile every rank's portion of the task graph.
	for r, rk := range s.Ranks {
		g, err := taskgraph.Compile(s.Level, s.Prob.Tasks, newAssign, r)
		if err != nil {
			return err
		}
		if err := rk.SetGraph(g); err != nil {
			return err
		}
	}
	s.assign = append(s.assign[:0], newAssign...)
	return nil
}

// MeasuredPatchCosts gathers every patch's accumulated kernel time from
// the owning rank's scheduler, in patch-ID order. Patches never offloaded
// yet report zero.
func (s *Simulation) MeasuredPatchCosts() []float64 {
	out := make([]float64, s.Level.Layout.NumPatches())
	for _, rk := range s.Ranks {
		for id, c := range rk.PatchCosts() {
			out[id] += float64(c)
		}
	}
	return out
}

// AutoRebalance redistributes patches using the measured per-patch kernel
// costs (the Uintah measurement-based load-balancing policy): contiguous
// patch-ID segments with approximately equal cost sums. It errors if no
// costs have been measured yet. Measurements reset afterwards so the next
// interval is judged on its own.
func (s *Simulation) AutoRebalance() ([]int, error) {
	costs := s.MeasuredPatchCosts()
	var total float64
	for _, c := range costs {
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no measured patch costs yet; run at least one step first")
	}
	assign, err := loadbalancer.AssignWeighted(costs, len(s.Ranks))
	if err != nil {
		return nil, err
	}
	if err := s.Rebalance(assign); err != nil {
		return nil, err
	}
	for _, rk := range s.Ranks {
		rk.ResetPatchCosts()
	}
	return assign, nil
}
