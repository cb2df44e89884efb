package scheduler

import (
	"fmt"
	"math"

	"sunuintah/internal/athread"
	"sunuintah/internal/faults"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// slot is one offload lane: a (sub-)cluster of CPEs with its completion
// flag, the object running on it and the job computing its tiles. With
// CPEGroups == 1 there is a single slot spanning all 64 CPEs, as in the
// paper; more slots implement the future-work CPE grouping.
type slot struct {
	group *athread.Group
	flag  *sim.Counter
	obj   *taskgraph.Object
	job   job

	// Resilience state (meaningful only under fault injection).
	off         *athread.Offload  // handle of the in-flight offload
	deadline    sim.Time          // absolute abort time for the in-flight offload; Infinity without faults
	attempts    int               // launches of the current object so far
	pending     *taskgraph.Object // aborted object awaiting its backoff retry
	retryAt     sim.Time          // absolute time of the next retry
	consecFails int               // consecutive timed-out offloads on this gang
	unhealthy   bool              // gang taken out of rotation; kernels go to the MPE
}

// gangDone reports whether sl's completion flag has reached the gang width
// at the process's clock. The flag is raised by calendar events, which a
// rank running ahead of the calendar may not have met yet, but the launch
// fixed when the last of them fires: the poll meets the calendar only when
// that event is due by now and has not run. Otherwise the flag already
// reads what a synchronising rank would read. Once it has been seen raised
// the completion events have all run, so the group is free again.
func (s *Rank) gangDone(p *sim.Process, sl *slot) bool {
	n := int64(sl.group.NumCPEs())
	if sl.flag.Value() < n && sl.off.DoneBy(p.Now()) {
		p.Sync()
	}
	return sl.flag.Value() >= n
}

// initSlots builds the offload lanes; called from New.
func (s *Rank) initSlots() {
	n := s.cfg.CPEGroups
	per := s.params.NumCPEs / n
	if per < 1 {
		per = 1
	}
	for i := 0; i < n; i++ {
		s.slots = append(s.slots, &slot{
			group: athread.NewGroupN(s.cg, per),
			flag:  sim.NewCounter(s.cg.Engine(), fmt.Sprintf("rank%d.flag%d", s.mpi.RankID(), i)),
		})
	}
}

// freeSlot returns an idle offload lane, or nil. Lanes holding an aborted
// object awaiting retry, and gangs marked unhealthy, are not free.
func (s *Rank) freeSlot() *slot {
	for _, sl := range s.slots {
		if sl.obj == nil && !sl.group.Busy() && sl.pending == nil && !sl.unhealthy {
			return sl
		}
	}
	return nil
}

// allUnhealthy reports whether every offload lane's gang has been marked
// unhealthy — the point where the scheduler degrades to MPE-only kernel
// execution for the rest of the run.
func (s *Rank) allUnhealthy() bool {
	for _, sl := range s.slots {
		if !sl.unhealthy {
			return false
		}
	}
	return true
}

// ioVar couples a dependency with its (possibly nil) main-memory field.
type ioVar struct {
	dep taskgraph.Dep
	f   *field.Cell
}

// gatherIO resolves a task object's inputs and outputs against the
// warehouses, into the rank's scratch: they are valid until its next call.
// Fields are nil in timing-only mode.
func (s *Rank) gatherIO(obj *taskgraph.Object) (ins, outs []ioVar) {
	ins, outs = s.ins[:0], s.outs[:0]
	defer func() { s.ins, s.outs = ins, outs }()
	for _, d := range obj.Task.Requires {
		var f *field.Cell
		if s.cfg.Functional {
			f = s.DWs.Select(d.DW).Get(d.Label, obj.Patch)
		}
		ins = append(ins, ioVar{dep: d, f: f})
	}
	for _, d := range obj.Task.Computes {
		var f *field.Cell
		if s.cfg.Functional {
			f = s.DWs.New.Get(d.Label, obj.Patch)
		}
		outs = append(outs, ioVar{dep: d, f: f})
	}
	return ins, outs
}

// kernelSpec builds the cost descriptor of an offloaded kernel under the
// current configuration.
func (s *Rank) kernelSpec(task *taskgraph.Task) athread.KernelSpec {
	k := task.Kernel
	w := k.Weight
	if w == 0 {
		w = 1
	}
	return athread.KernelSpec{
		Name:            task.Name,
		FlopsPerCell:    k.FlopsPerCell,
		ExpFlopsPerCell: k.ExpFlopsPerCell,
		Weight:          w,
		SIMD:            s.cfg.SIMD,
		OverlapDMA:      s.cfg.AsyncDMA,
		PackedDMA:       s.cfg.TilePacking,
	}
}

// ldmWorkingSet returns the per-tile LDM requirement of a task: each input
// staged with its ghost margin plus each output tile.
func ldmWorkingSet(task *taskgraph.Task, tile grid.Tile) int64 {
	var bytes int64
	for _, d := range task.Requires {
		bytes += tile.Box.Grow(d.Ghost).NumCells() * 8
	}
	bytes += int64(len(task.Computes)) * tile.Box.NumCells() * 8
	return bytes
}

// tilePlan is what offload derives from a patch's geometry and the gang
// width alone. It is built at the patch's first offload and reused by every
// later one: re-deriving it per offload — materialising thousands of Tile
// structs for a large patch just to count them — was a quarter of the
// evaluation sweep's host time.
type tilePlan struct {
	// nominal is tile (0,0,0), the largest shape: the LDM feasibility check
	// runs on it, and when uniform it is every tile's shape.
	nominal grid.Tile
	counts  []int // tiles per CPE under the natural z-partition
	active  int   // CPEs with at least one tile
	// uniform: timing-only and every tile has the nominal shape, so the
	// analytic fast path needs counts only and assign stays nil.
	uniform bool
	assign  [][]grid.Tile
}

// planKey is keyed on patch and gang width. A rank's patches are fixed for
// its simulation's life, so a cached plan never goes stale.
type planKey struct {
	patch *grid.Patch
	cpes  int
}

// tilePlanFor returns the cached plan of patch on an nCPE-wide gang.
func (s *Rank) tilePlanFor(patch *grid.Patch, nCPE int) (*tilePlan, error) {
	k := planKey{patch, nCPE}
	if pl, ok := s.plans[k]; ok {
		return pl, nil
	}
	tiling, err := grid.NewTiling(patch, s.cfg.TileSize)
	if err != nil {
		return nil, err
	}
	pl := &tilePlan{
		nominal: tiling.Tile(grid.IV(0, 0, 0)),
		counts:  tiling.AssignZCounts(nCPE),
		uniform: !s.cfg.Functional && tilingUniform(patch, s.cfg.TileSize),
	}
	for _, n := range pl.counts {
		if n > 0 {
			pl.active++
		}
	}
	if !pl.uniform {
		pl.assign = tiling.AssignZ(nCPE)
	}
	if s.plans == nil {
		s.plans = map[planKey]*tilePlan{}
	}
	s.plans[k] = pl
	return pl, nil
}

// offload launches a kernel task on a CPE slot: the CPE tile scheduler of
// Section V-D. The patch is subdivided into LDM-sized tiles, tiles are
// assigned to CPEs by natural z-partition, and each CPE loops over its
// tiles performing athread_get, kernel, athread_put, finally bumping the
// completion flag with faaw.
func (s *Rank) offload(p *sim.Process, step int, t, dt float64, obj *taskgraph.Object, sl *slot) error {
	task := obj.Task
	patch := obj.Patch
	plan, err := s.tilePlanFor(patch, sl.group.NumCPEs())
	if err != nil {
		return err
	}
	// LDM feasibility on the nominal (largest) tile shape.
	if ws := ldmWorkingSet(task, plan.nominal); ws > s.params.LDMBytes {
		return fmt.Errorf("scheduler: task %q tile %v needs %d B of LDM, only %d available",
			task.Name, s.cfg.TileSize, ws, s.params.LDMBytes)
	}
	ins, outs := s.gatherIO(obj)
	spec := s.kernelSpec(task)

	// Uniform tilings in timing-only mode take the analytic fast path.
	var getBytes, putBytes, cellsPerTile int64
	if plan.uniform {
		cellsPerTile = plan.nominal.Box.NumCells()
		for _, iv := range ins {
			getBytes += plan.nominal.Box.Grow(iv.dep.Ghost).NumCells() * 8
		}
		putBytes = int64(len(outs)) * cellsPerTile * 8
	}

	s.charge(p, sim.Time(s.params.OffloadCost), &s.Stats.MPEWorkTime,
		trace.KindMPEWork, step, s.note("offload ", task.Name))

	sl.flag.Reset()
	var tileErr error
	// The launch body charges virtual time and counters serially, in tile
	// order (deterministic accounting), and records each tile's context in
	// the slot's job. The numerics — pure per-tile functions over disjoint
	// output regions — then run from the tile queue while the rank goes on;
	// the rank waits for them where it sees the flag raised or the launch
	// aborted, before it releases the object (see job).
	j := &sl.job
	j.tiles, j.vars = j.tiles[:0], j.vars[:0]
	start := p.Now()
	off := sl.group.Launch(spec, plan.active, sl.flag, func(c *athread.CPE) {
		n := plan.counts[c.ID]
		if n == 0 {
			return
		}
		if plan.uniform {
			c.RepeatTiles(n, getBytes, putBytes, cellsPerTile)
			return
		}
		for _, tile := range plan.assign[c.ID] {
			if tileErr != nil {
				return
			}
			tileErr = s.runTile(c, j, obj, tile, step, t, dt, ins, outs)
		}
	})
	if tileErr != nil {
		return tileErr
	}
	j.start(s.workers, task.Kernel.Compute)
	obj.State = taskgraph.StateRunning
	sl.obj = obj
	sl.off = off
	s.probeGangs()
	// Only an injector can stall a gang: without one the deadline never
	// falls due.
	sl.deadline = sim.Infinity
	if s.inj != nil {
		sl.deadline = start + off.Estimate*faults.DeadlineFactor
	}
	s.Stats.Offloads++
	if s.cfg.Trace != nil {
		// A stalled gang never completes; trace its healthy estimate so the
		// timeline never sees Infinity.
		dur := off.Done
		if off.Stalled {
			dur = off.Estimate
		}
		s.cfg.Trace.Add(trace.Event{Rank: s.mpi.RankID(), Step: step, Kind: trace.KindKernel,
			Name: fmt.Sprintf("%s p%d", task.Name, patch.ID), Start: start, End: start + dur})
	}
	return nil
}

// tilingUniform reports whether every tile of the patch has the nominal
// shape (the patch size divides evenly).
func tilingUniform(patch *grid.Patch, tileSize grid.IVec) bool {
	s := patch.Box.Size()
	return s.X%tileSize.X == 0 && s.Y%tileSize.Y == 0 && s.Z%tileSize.Z == 0
}

// runTile accounts one tile's get/compute/put round trip on a CPE: LDM
// reservation, DMA charges, compute time and counters, in that order. In
// functional mode it also appends the tile's context — windows onto the
// warehouse fields, as athread hands them out — to j; offload starts the
// kernel over them once the launch is accounted.
func (s *Rank) runTile(c *athread.CPE, j *job, obj *taskgraph.Object, tile grid.Tile,
	step int, t, dt float64, ins, outs []ioVar) error {
	bufs := s.bufs[:0]
	first := len(j.vars)
	record := s.cfg.Functional && obj.Task.Kernel.Compute != nil
	reserve := func(buf *athread.LDMBuf, err error, l *taskgraph.Label) error {
		if err != nil {
			for _, b := range bufs {
				c.Release(b)
			}
			return err
		}
		bufs = append(bufs, buf)
		if record {
			j.vars = append(j.vars, taskgraph.TileVar{Label: l, Data: buf.Data})
		}
		return nil
	}
	for _, iv := range ins {
		buf, err := c.Get(tile.Box.Grow(iv.dep.Ghost), iv.f)
		if err := reserve(buf, err, iv.dep.Label); err != nil {
			return err
		}
	}
	for _, ov := range outs {
		buf, err := c.NewBuf(tile.Box, ov.f)
		if err := reserve(buf, err, ov.dep.Label); err != nil {
			return err
		}
	}
	if record {
		mid := first + len(ins)
		j.tiles = append(j.tiles, taskgraph.TileContext{
			Patch: obj.Patch, Tile: tile,
			In: j.vars[first:mid], Out: j.vars[mid:],
			Step: step, Time: t, Dt: dt,
			Level: s.graph.Level,
		})
	}
	c.Compute(tile.Box.NumCells())
	for _, b := range bufs[len(ins):] {
		c.Put(b)
	}
	for _, b := range bufs {
		c.Release(b)
	}
	c.EndTile()
	s.bufs = bufs
	return nil
}

// runOnMPE executes a kernel task directly on the MPE (the paper's
// host.sync baseline): no tiling, no offload, the whole patch computed by
// the management element.
func (s *Rank) runOnMPE(p *sim.Process, step int, t, dt float64, obj *taskgraph.Object) error {
	task := obj.Task
	cells := obj.Patch.NumCells()
	w := task.Kernel.Weight
	if w == 0 {
		w = 1
	}
	kernelTime := sim.Time(s.params.MPEKernelTime(cells, w))
	s.charge(p, kernelTime, &s.Stats.MPEKernelTime,
		trace.KindMPEKern, step, fmt.Sprintf("%s p%d (mpe)", task.Name, obj.Patch.ID))
	if s.cfg.Functional && task.Kernel.Compute != nil {
		ins, outs := s.gatherIO(obj)
		vars := make(taskgraph.TileVars, 0, len(ins)+len(outs))
		for _, v := range append(ins, outs...) {
			vars = append(vars, taskgraph.TileVar{Label: v.dep.Label, Data: v.f})
		}
		task.Kernel.Compute(&taskgraph.TileContext{
			Patch: obj.Patch, Tile: grid.Tile{Box: obj.Patch.Box},
			In: vars[:len(ins)], Out: vars[len(ins):],
			Step: step, Time: t, Dt: dt,
			Level: s.graph.Level,
		})
	}
	ctr := &s.cg.Counters
	ctr.MPEFlops += int64(task.Kernel.FlopsPerCell * float64(cells))
	ctr.CellsComputed += cells
	return nil
}
