package scheduler

import (
	"fmt"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"

	"sunuintah/internal/mpisim"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

// bcFlopsPerCell is the counted floating-point work of one boundary-
// condition evaluation on the MPE: a product of three phi values, six
// exponentials plus the rational combination.
const bcFlopsPerCell = 221

// ExecuteStep runs one timestep of the compiled task graph on this rank,
// following the MPE task-scheduler loop of Section V-C:
//
//  1. post non-blocking receives for tasks depending on remote data,
//  2. when the CPE completion flag is set, complete the running task,
//     select the next ready offloadable task, process its MPE part and
//     offload it (asynchronously, synchronously, or run it on the MPE),
//  3. test posted sends and receives and update dependent task states,
//  4. execute ready MPE tasks such as reductions.
//
// t is the old warehouse's time level and dt the step size. On return, all
// local tasks have completed, all sends have drained, and the warehouses
// have swapped.
func (s *Rank) ExecuteStep(p *sim.Process, step int, t, dt float64) error {
	g := s.graph
	g.ResetForStep()
	nPatches := g.Level.Layout.NumPatches()
	tagOf := func(e *taskgraph.Edge) int { return step*g.NumTags() + e.BaseTag(nPatches) }

	// Step 1 and step 4 of Section V-C: prepare for scheduling (flags,
	// athread environment) and check whether task-graph recompilation,
	// load balancing or regridding is needed. This per-step infrastructure
	// cost is what limits strong scaling once kernels get short.
	s.charge(p, sim.Time(s.params.StepFixedCost), &s.Stats.MPEWorkTime,
		trace.KindMPEWork, step, "step setup/teardown")

	// Step 3a: post non-blocking receives.
	s.recvs = s.recvs[:0]
	for _, e := range g.Recvs {
		t0 := p.Now()
		req := s.mpi.Irecv(p, e.SrcRank, tagOf(e))
		s.noteComm(p, t0, step, s.note("irecv ", e.Label.Name()))
		s.recvs = append(s.recvs, pendingRecv{edge: e, req: req})
	}

	// Post sends: the data they carry was completed by the previous
	// timestep (or initialisation), so it is ready now. Packing is MPE
	// work.
	s.sends = s.sends[:0]
	for _, e := range g.Sends {
		var payload []float64
		if s.cfg.Functional {
			// The payload buffer is pooled: the receiver recycles it after
			// unpacking (unpackRecv), so steady-state halo exchange
			// allocates nothing.
			f := s.DWs.Old.Get(e.Label, e.Src)
			payload = field.GetBuf(int(e.Bytes / 8))
			for _, r := range e.Regions {
				payload = f.Pack(r, payload)
			}
		}
		s.charge(p, sim.Time(s.params.LocalCopyTime(e.Bytes)), &s.Stats.MPEWorkTime,
			trace.KindMPEWork, step, s.note("pack ", e.Label.Name()))
		t0 := p.Now()
		req := s.mpi.Isend(p, e.DstRank, tagOf(e), payload, e.Bytes)
		s.noteComm(p, t0, step, s.note("isend ", e.Label.Name()))
		s.sends = append(s.sends, pendingSend{req: req})
	}

	completed := 0
	total := len(g.Objects)
	s.cfg.Probes.QueueDepth(p.Now(), total)
	s.cfg.Probes.Prepared(p.Now(), len(s.prepared))

	for {
		progressed := false

		// Step 3b: completion-flag checks on every CPE slot. Under fault
		// injection this is also where overdue offloads are aborted and
		// backed-off retries are relaunched.
		for _, sl := range s.slots {
			if sl.pending != nil {
				if sl.unhealthy {
					obj := sl.pending
					sl.pending = nil
					if err := s.fallbackToMPE(p, step, t, dt, obj, &completed); err != nil {
						return err
					}
					progressed = true
				} else if p.Now() >= sl.retryAt {
					if err := s.retryPending(p, step, t, dt, sl); err != nil {
						return err
					}
					progressed = true
				}
			}
			if sl.obj == nil {
				continue
			}
			s.charge(p, sim.Time(s.params.PollCost), &s.Stats.CommTime,
				trace.KindComm, step, "poll flag")
			if s.gangDone(p, sl) {
				sl.job.wait()
				s.completeObject(sl.obj, &completed)
				s.clearSlot(sl)
				progressed = true
			} else if p.Now() >= sl.deadline {
				if err := s.handleOffloadTimeout(p, step, t, dt, sl, &completed); err != nil {
					return err
				}
				progressed = true
			}
		}

		// Offload ready kernels into free slots (or run them on the MPE).
		// Objects prepared ahead of time go first — their MPE part is
		// already done. Once every gang is unhealthy no slot will ever be
		// free again, and kernels degrade to the MPE instead.
		degraded := s.allUnhealthy()
		for {
			sl := s.freeSlot()
			if sl == nil && !degraded {
				break
			}
			var obj *taskgraph.Object
			if len(s.prepared) > 0 {
				obj = s.prepared[0]
				s.prepared = s.prepared[1:]
				s.cfg.Probes.Prepared(p.Now(), len(s.prepared))
			} else {
				obj = s.nextReady(true)
				if obj == nil {
					break
				}
				if err := s.processMPEPart(p, step, t, obj); err != nil {
					return err
				}
			}
			var err error
			switch {
			case s.cfg.Mode == ModeMPEOnly:
				if err = s.runOnMPE(p, step, t, dt, obj); err == nil {
					s.completeObject(obj, &completed)
				}
			case degraded:
				err = s.fallbackToMPE(p, step, t, dt, obj, &completed)
			default:
				err = s.offload(p, step, t, dt, obj, sl)
				if err == nil && s.cfg.Mode == ModeSync {
					err = s.syncOffloadWait(p, step, t, dt, sl, &completed)
				}
			}
			if err != nil {
				return err
			}
			progressed = true
		}

		// Work-ahead (asynchronous mode): while the CPEs are busy, process
		// the MPE part of the next ready kernel — allocate its outputs,
		// copy same-rank ghosts, fill boundary conditions — so it can be
		// offloaded the instant the completion flag is set. This is the
		// "continues with jobs" overlap of Section V-C applied to task
		// preparation; the synchronous scheduler, spinning on the flag,
		// cannot do any of it.
		if s.cfg.Mode == ModeAsync {
			for len(s.prepared) < len(s.slots) {
				obj := s.nextReady(true)
				if obj == nil {
					break
				}
				if err := s.processMPEPart(p, step, t, obj); err != nil {
					return err
				}
				obj.State = taskgraph.StatePrepared
				s.prepared = append(s.prepared, obj)
				s.cfg.Probes.Prepared(p.Now(), len(s.prepared))
				progressed = true
			}
		}

		// Step 3c: test posted receives and sends; completed receives are
		// unpacked and release their dependent tasks.
		for i := range s.recvs {
			r := &s.recvs[i]
			if r.done {
				continue
			}
			t0 := p.Now()
			ok := s.mpi.Test(p, r.req)
			s.noteComm(p, t0, step, "test recv")
			if !ok {
				continue
			}
			r.done = true
			s.unpackRecv(p, step, r)
			// The request is fully consumed (payload unpacked above):
			// hand it back to the rank's pool.
			s.mpi.Free(r.req)
			r.req = nil
			progressed = true
		}
		for i := range s.sends {
			sd := &s.sends[i]
			if sd.done {
				continue
			}
			t0 := p.Now()
			ok := s.mpi.Test(p, sd.req)
			s.noteComm(p, t0, step, "test send")
			if !ok {
				continue
			}
			sd.done = true
			// Send requests carry no payload to read back: retire the
			// handle into the rank's pool right away.
			s.mpi.Free(sd.req)
			sd.req = nil
		}

		// Step 3d: execute ready MPE tasks (reductions).
		for {
			obj := s.nextReady(false)
			if obj == nil {
				break
			}
			if err := s.runReduction(p, step, obj); err != nil {
				return err
			}
			s.completeObject(obj, &completed)
			progressed = true
		}

		if completed == total && s.commDrained() {
			break
		}
		if !progressed {
			s.waitForEvent(p, step)
		}
	}

	// Step 4: the timestep is finished; the new warehouse becomes old.
	s.DWs.Swap()
	s.Stats.StepsRun++
	return nil
}

// noteComm attributes the virtual time an MPI call consumed to the
// communication bucket.
func (s *Rank) noteComm(p *sim.Process, t0 sim.Time, step int, name string) {
	end := p.Now()
	d := end - t0
	if d <= 0 {
		return
	}
	s.Stats.CommTime += d
	s.cfg.Trace.Add(trace.Event{Rank: s.mpi.RankID(), Step: step,
		Kind: trace.KindComm, Name: name, Start: t0, End: end})
}

// nextReady returns the lowest-index ready object, selecting offloadable
// kernels or reductions.
func (s *Rank) nextReady(offloadable bool) *taskgraph.Object {
	for _, o := range s.graph.Objects {
		isKernel := o.Task.Kind == taskgraph.KindOffload
		if isKernel == offloadable && o.State == taskgraph.StateReady {
			return o
		}
	}
	return nil
}

// completeObject marks an object done and releases its downstream
// dependencies.
func (s *Rank) completeObject(o *taskgraph.Object, completed *int) {
	o.State = taskgraph.StateCompleted
	*completed++
	s.Stats.TasksRun++
	s.cfg.Probes.QueueDelta(s.cg.Engine().Now(), -1)
	for _, d := range o.Downstream {
		d.PendingDeps--
		if d.PendingDeps == 0 && d.State == taskgraph.StateWaiting {
			d.State = taskgraph.StateReady
		}
	}
}

// processMPEPart performs the MPE-side work of a selected task object:
// task bookkeeping, allocating its outputs in the new warehouse, copying
// same-rank ghost regions, and filling physical-boundary ghosts.
func (s *Rank) processMPEPart(p *sim.Process, step int, t float64, obj *taskgraph.Object) error {
	s.charge(p, sim.Time(s.params.TaskFixedCost), &s.Stats.MPEWorkTime,
		trace.KindMPEWork, step, s.note("select ", obj.Task.Name))
	s.awaitPatch(obj.Patch)

	for _, d := range obj.Task.Computes {
		if s.DWs.New.Exists(d.Label, obj.Patch) {
			continue
		}
		if err := s.DWs.New.Allocate(d.Label, obj.Patch, s.maxGhost[d.Label]); err != nil {
			return err
		}
		bytes := s.DWs.New.Bytes(d.Label, obj.Patch)
		s.charge(p, sim.Time(s.params.TouchTime(bytes)), &s.Stats.MPEWorkTime,
			trace.KindMPEWork, step, s.note("touch ", d.Label.Name()))
	}

	for _, cr := range obj.LocalCopies {
		if s.cfg.Functional {
			dst := s.DWs.Old.Get(cr.Label, obj.Patch)
			src := s.DWs.Old.Get(cr.Label, cr.Src)
			for _, r := range cr.Regions {
				dst.CopyRegion(src, r)
			}
		}
		s.charge(p, sim.Time(s.params.LocalCopyTime(2*cr.Bytes)), &s.Stats.MPEWorkTime,
			trace.KindMPEWork, step, s.note("ghost copy ", cr.Label.Name()))
	}

	for _, bc := range obj.BCFills {
		if s.cfg.Functional {
			f := s.DWs.Old.Get(bc.Label, obj.Patch)
			lv := s.graph.Level
			fill, profile := bc.Label.BC, bc.Label.Profile
			for _, r := range bc.Regions {
				switch {
				case profile != nil:
					f.FillSeparable(r, lv, func(axis int, x float64) float64 { return profile(axis, x, t) })
				case fill != nil:
					f.FillFunc(r, func(c grid.IVec) float64 {
						x, y, z := lv.CellCenter(c)
						return fill(x, y, z, t)
					})
				default:
					f.Fill(r, 0)
				}
			}
		}
		s.charge(p, sim.Time(s.params.BCFillTime(bc.Cells)), &s.Stats.MPEWorkTime,
			trace.KindMPEWork, step, s.note("bc fill ", bc.Label.Name()))
		s.cg.Counters.MPEFlops += bc.Cells * bcFlopsPerCell
	}
	return nil
}

// awaitPatch waits for the job of any object in flight on patch: the MPE
// is about to write the patch's old fields, which its kernel may be
// reading (a second task requiring the same label at a wider ghost).
func (s *Rank) awaitPatch(patch *grid.Patch) {
	for _, sl := range s.slots {
		if sl.obj != nil && sl.obj.Patch == patch {
			s.patchWaits++
			sl.job.wait()
		}
	}
}

// unpackRecv copies a completed receive's payload into the destination
// patch's ghost margin and releases dependent tasks.
func (s *Rank) unpackRecv(p *sim.Process, step int, r *pendingRecv) {
	e := r.edge
	if s.cfg.Functional {
		s.awaitPatch(e.Dst)
		f := s.DWs.Old.Get(e.Label, e.Dst)
		payload := r.req.Payload()
		buf := payload
		for _, region := range e.Regions {
			buf = f.Unpack(region, buf)
		}
		if len(buf) != 0 {
			panic(fmt.Sprintf("scheduler: recv payload for %s %v->%v has %d values left over",
				e.Label.Name(), e.Src, e.Dst, len(buf)))
		}
		// The payload came from the sender's pool draw and is fully
		// consumed: recycle it. Duplicate deliveries under fault injection
		// are suppressed by sequence number before their payload is read,
		// and resends stop once the receive has matched, so nothing reads
		// this buffer again.
		field.PutSlice(payload)
	}
	s.charge(p, sim.Time(s.params.LocalCopyTime(e.Bytes)), &s.Stats.MPEWorkTime,
		trace.KindMPEWork, step, s.note("unpack ", e.Label.Name()))
	for _, o := range e.DstObjs {
		o.PendingDeps--
		if o.PendingDeps == 0 && o.State == taskgraph.StateWaiting {
			o.State = taskgraph.StateReady
		}
	}
}

// runReduction executes a ready reduction: it folds the rank's patches
// into a partial and combines it across ranks.
func (s *Rank) runReduction(p *sim.Process, step int, obj *taskgraph.Object) error {
	task := obj.Task
	d := task.Requires[0]
	var partial float64
	switch task.Reduce.Op {
	case mpisim.OpMax:
		partial = negInf
	case mpisim.OpMin:
		partial = posInf
	}
	var bytes int64
	for _, patch := range s.graph.LocalPatches {
		// A patch-filtered reduction folds (and pays for) only its own
		// patches; its predicate must match its producer's.
		if !task.AppliesTo(patch.ID) {
			continue
		}
		bytes += patch.NumCells() * 8
		if s.cfg.Functional && task.Reduce.Local != nil {
			v := task.Reduce.Local(patch, s.DWs.Select(d.DW).Get(d.Label, patch))
			switch task.Reduce.Op {
			case mpisim.OpSum:
				partial += v
			case mpisim.OpMax:
				if v > partial {
					partial = v
				}
			case mpisim.OpMin:
				if v < partial {
					partial = v
				}
			}
		}
	}
	s.charge(p, sim.Time(s.params.LocalCopyTime(bytes)), &s.Stats.MPEWorkTime,
		trace.KindReduce, step, s.note("local reduce ", task.Name))
	t0 := p.Now()
	result := s.mpi.Allreduce(p, partial, task.Reduce.Op)
	s.Stats.CommTime += p.Now() - t0
	s.cfg.Trace.Add(trace.Event{Rank: s.mpi.RankID(), Step: step,
		Kind: trace.KindReduce, Name: task.Name, Start: t0, End: p.Now()})
	if task.Reduce.Result != nil {
		task.Reduce.Result(step, result)
	}
	return nil
}

// commDrained reports whether every posted send and receive has been
// observed complete.
func (s *Rank) commDrained() bool {
	for i := range s.recvs {
		if !s.recvs[i].done {
			return false
		}
	}
	for i := range s.sends {
		if !s.sends[i].done {
			return false
		}
	}
	return true
}

// waitForEvent parks the MPE until something it is waiting on can make
// progress: a completion flag reaching its threshold, an outstanding
// request finishing on the wire or, under fault injection, an offload
// deadline or a retry falling due. The virtual time spent corresponds to
// the scheduler's idle polling. It first meets the calendar — which flags
// have been raised is an observation — and then parks once (sim.Process.Park):
// decided requests and fault-mode timers set the deadline, and flags and
// undecided requests register to end the park when they fire.
func (s *Rank) waitForEvent(p *sim.Process, step int) {
	p.Sync()
	until := sim.Infinity
	waiting := false
	for _, sl := range s.slots {
		if sl.obj != nil {
			sl.flag.NotifyAt(p, int64(sl.group.NumCPEs()))
			waiting = true
			// A stalled gang never fires the flag: the deadline is the
			// guaranteed wake-up that lets the scheduler recover.
			until = min(until, sl.deadline)
		}
		if sl.pending != nil {
			// An unhealthy gang's object is handled on the next loop pass.
			if sl.unhealthy {
				until = p.Now()
			} else {
				until = min(until, sl.retryAt)
			}
			waiting = true
		}
	}
	for i := range s.recvs {
		if r := &s.recvs[i]; !r.done {
			s.mpi.Watch(p, r.req, &until)
			waiting = true
		}
	}
	for i := range s.sends {
		if sd := &s.sends[i]; !sd.done {
			s.mpi.Watch(p, sd.req, &until)
			waiting = true
		}
	}
	if !waiting {
		panic(fmt.Sprintf("scheduler: rank %d stalled with nothing to wait for", s.mpi.RankID()))
	}
	t0 := p.Now()
	p.Park(until)
	s.Stats.IdleTime += p.Now() - t0
	s.cfg.Trace.Add(trace.Event{Rank: s.mpi.RankID(), Step: step,
		Kind: trace.KindIdle, Name: "wait", Start: t0, End: p.Now()})
}
