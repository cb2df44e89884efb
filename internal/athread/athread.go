// Package athread emulates Sunway's athread offloading library on the
// simulated SW26010: the MPE spawns a function across the 64 CPEs of its
// core group, and the offloaded function moves data between main memory and
// the per-CPE 64 KB LDM with DMA (athread_get/athread_put), computes on the
// LDM working set, and reports completion through a faaw-updated flag in
// main memory.
//
// Each CPE accounts its own virtual time (DMA waits plus compute), so load
// imbalance between CPEs is visible to the scheduler exactly as it would be
// on hardware: the completion flag reaches the CPE count only when the
// slowest CPE finishes.
package athread

import (
	"fmt"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
)

// KernelSpec describes the cost profile of an offloaded kernel, used to
// charge virtual time and hardware counters.
type KernelSpec struct {
	// Name identifies the kernel in traces.
	Name string
	// FlopsPerCell is the counted floating-point work per computed cell
	// (divides and square roots count as one, like the hardware counters).
	FlopsPerCell float64
	// ExpFlopsPerCell is the portion of FlopsPerCell inside the software
	// exponential routines.
	ExpFlopsPerCell float64
	// Weight scales the calibrated per-cell compute time relative to the
	// Burgers kernel (1.0).
	Weight float64
	// SIMD selects the vectorised cost model (compute divided by the
	// calibrated SIMD speed-up).
	SIMD bool
	// OverlapDMA models the paper's future-work asynchronous double-
	// buffered DMA: within each CPE, a tile's transfers overlap the
	// neighbouring tile's compute. Kernels opt in per tile by calling
	// EndTile at tile boundaries.
	OverlapDMA bool
	// PackedDMA models the future-work tile packing: strided tile rows are
	// packed into contiguous transfer buffers, improving DMA efficiency
	// and amortising per-operation latency.
	PackedDMA bool
}

// dmaTime selects the packed or strided transfer model.
func (s *KernelSpec) dmaTime(p *perf.Params, bytes int64, active int) float64 {
	if s.PackedDMA {
		return p.PackedDMATime(bytes, active)
	}
	return p.DMATime(bytes, active)
}

// Group is the cluster of athreads bound to one core group's CPEs. A group
// runs at most one offloaded kernel at a time, as on the hardware.
type Group struct {
	cg   *sw26010.CoreGroup
	cpes int
	busy bool
	// slab holds the current offload's LDM buffer records. Launch rewinds
	// it, so a steady-state offload allocates none.
	slab []LDMBuf
	// cpe is the one context every CPE body of a gang runs on (see Launch).
	cpe CPE
	// done is the current offload's completion list: one entry per distinct
	// CPE finish time. The backing array is allocated once, at the gang
	// width, and never grows: pending calendar events point into it.
	done []completion
	// launches numbers the offloads, so a handle kept past the next Launch
	// cannot abort that one's entries.
	launches uint64
}

// completion is the calendar event of every CPE of a gang that finishes at
// the same instant: it faaw-adds their count to the flag in one step. The
// MPE only ever compares the flag with the gang width, and the per-CPE
// updates it stands for were scheduled back to back — consecutive sequence
// numbers, so no other event could run between those of one instant.
type completion struct {
	at    sim.Time // offset from launch
	n     int64
	flag  *sim.Counter
	group *Group // set on the entry at the cluster completion time: frees the group
	event sim.EventHandle
}

// Call implements sim.Caller.
func (c *completion) Call() {
	c.flag.Add(c.n)
	if c.group != nil {
		c.group.busy = false
	}
}

// NewGroupN initialises an athread environment over a subset of n CPEs,
// supporting the paper's future-work CPE grouping (several patches in
// flight on disjoint CPE groups).
func NewGroupN(cg *sw26010.CoreGroup, n int) *Group {
	if n < 1 || n > cg.Params.NumCPEs {
		panic(fmt.Sprintf("athread: group size %d outside [1,%d]", n, cg.Params.NumCPEs))
	}
	return &Group{cg: cg, cpes: n, done: make([]completion, 0, n)}
}

// NumCPEs returns the number of CPEs in the group.
func (g *Group) NumCPEs() int { return g.cpes }

// Busy reports whether an offload is in flight.
func (g *Group) Busy() bool { return g.busy }

// CPE is the execution context an offloaded function receives, one per
// computing processing element.
type CPE struct {
	// ID is the CPE index within the cluster (0..63).
	ID int

	group   *Group
	spec    KernelSpec
	active  int // CPEs sharing the memory controller, for DMA contention
	elapsed sim.Time
	ldmUsed int64

	// Double-buffering state (spec.OverlapDMA).
	firstTile   bool
	tileDMA     sim.Time
	tileCompute sim.Time
}

// LDMBuf is a region of a main-memory field held in the CPE's local data
// memory. What it costs on the machine — the LDM reservation and the DMA
// transfers of Get and Put — is accounted in full; the emulation itself
// moves no data: Data is a window onto the main-memory field, bounded to
// Region, so a kernel sees exactly the cells a staged copy would hold and
// its writes land where Put would have copied them. Data is nil in
// timing-only runs. A buffer, and the window it handed out, stay valid
// until the group's next Launch.
type LDMBuf struct {
	Region grid.Box
	Data   *field.Cell
	win    field.Cell
	bytes  int64
}

// Get reserves an LDM buffer for region and charges the synchronous DMA
// read that fills it from src. src may be nil in timing-only mode. It
// returns an error when the buffer does not fit in the remaining LDM.
func (c *CPE) Get(region grid.Box, src *field.Cell) (*LDMBuf, error) {
	buf, err := c.alloc(region, src)
	if err != nil {
		return nil, err
	}
	c.chargeDMA(buf.bytes)
	return buf, nil
}

// NewBuf reserves an LDM buffer for region — the kernel's output tile,
// which Put later writes to dst — without a DMA read. dst may be nil in
// timing-only mode.
func (c *CPE) NewBuf(region grid.Box, dst *field.Cell) (*LDMBuf, error) {
	return c.alloc(region, dst)
}

func (c *CPE) alloc(region grid.Box, f *field.Cell) (*LDMBuf, error) {
	if region.Empty() {
		return nil, fmt.Errorf("athread: empty LDM region %v", region)
	}
	bytes := region.NumCells() * 8
	if c.ldmUsed+bytes > c.group.cg.Params.LDMBytes {
		return nil, fmt.Errorf("athread: CPE %d LDM overflow: %d B in use + %d B requested > %d B",
			c.ID, c.ldmUsed, bytes, c.group.cg.Params.LDMBytes)
	}
	c.ldmUsed += bytes
	buf := c.group.newBuf()
	*buf = LDMBuf{Region: region, bytes: bytes}
	if f != nil {
		buf.win = f.Window(region)
		buf.Data = &buf.win
	}
	return buf, nil
}

// newBuf returns the next record of the offload's slab. A full slab is
// replaced, not grown in place: records already handed out keep pointing
// into the old one.
func (g *Group) newBuf() *LDMBuf {
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]LDMBuf, 0, max(64, 2*cap(g.slab)))
	}
	g.slab = g.slab[:len(g.slab)+1]
	return &g.slab[len(g.slab)-1]
}

// Put charges the synchronous DMA write of buf back to main memory.
func (c *CPE) Put(buf *LDMBuf) {
	c.chargeDMA(buf.bytes)
}

// Release frees the buffer's LDM. A window taken from buf.Data beforehand
// stays usable (see LDMBuf).
func (c *CPE) Release(buf *LDMBuf) {
	c.ldmUsed -= buf.bytes
	if c.ldmUsed < 0 {
		panic("athread: LDM accounting underflow")
	}
	buf.Data = nil
}

// Compute charges the kernel's per-cell compute cost for cells cells and
// updates the hardware counters.
func (c *CPE) Compute(cells int64) {
	p := &c.group.cg.Params
	d := sim.Time(p.CPEComputeTime(cells, c.spec.SIMD, c.spec.Weight) * c.group.cg.Jitter())
	if c.spec.OverlapDMA {
		c.tileCompute += d
	} else {
		c.elapsed += d
	}
	ctr := &c.group.cg.Counters
	ctr.Flops += int64(c.spec.FlopsPerCell * float64(cells))
	ctr.ExpFlops += int64(c.spec.ExpFlopsPerCell * float64(cells))
	ctr.CellsComputed += cells
}

// RepeatTiles charges the cost of processing n identical tiles — each one a
// DMA read of getBytes, a kernel over cellsPerTile cells, and a DMA write
// of putBytes — without per-tile LDM bookkeeping. It is the timing-only
// fast path for uniform tilings; the accounted time and counters are
// exactly what n Get/Compute/Put round trips would charge.
func (c *CPE) RepeatTiles(n int, getBytes, putBytes, cellsPerTile int64) {
	if n <= 0 {
		return
	}
	p := &c.group.cg.Params
	dma := sim.Time(c.spec.dmaTime(p, getBytes, c.active)) + sim.Time(c.spec.dmaTime(p, putBytes, c.active))
	compute := sim.Time(p.CPEComputeTime(cellsPerTile, c.spec.SIMD, c.spec.Weight) * c.group.cg.Jitter())
	if c.spec.OverlapDMA {
		// Double buffering: pipeline fill on the first tile, then the
		// steady state is bounded by the slower of transfers and compute.
		c.elapsed += dma + compute + sim.Time(n-1)*max(dma, compute)
	} else {
		c.elapsed += sim.Time(n) * (dma + compute)
	}
	ctr := &c.group.cg.Counters
	cells := int64(n) * cellsPerTile
	ctr.Flops += int64(c.spec.FlopsPerCell * float64(cells))
	ctr.ExpFlops += int64(c.spec.ExpFlopsPerCell * float64(cells))
	ctr.CellsComputed += cells
	ctr.DMABytes += int64(n) * (getBytes + putBytes)
	ctr.DMAOps += int64(2 * n)
}

// EndTile marks a tile boundary for double-buffered DMA accounting: the
// first tile is fully serial (pipeline fill); each later tile costs the
// maximum of its transfers and its compute. Without OverlapDMA it is a
// no-op (transfers were charged serially as they happened).
func (c *CPE) EndTile() {
	if !c.spec.OverlapDMA {
		return
	}
	if c.firstTile {
		c.elapsed += c.tileDMA + c.tileCompute
		c.firstTile = false
	} else {
		c.elapsed += max(c.tileDMA, c.tileCompute)
	}
	c.tileDMA, c.tileCompute = 0, 0
}

func (c *CPE) chargeDMA(bytes int64) {
	p := &c.group.cg.Params
	d := sim.Time(c.spec.dmaTime(p, bytes, c.active))
	if c.spec.OverlapDMA {
		c.tileDMA += d
	} else {
		c.elapsed += d
	}
	c.group.cg.Counters.DMABytes += bytes
	c.group.cg.Counters.DMAOps++
}

// Offload is the handle of one in-flight Launch: its (virtual)
// completion offset, the healthy-cost estimate the scheduler derives
// deadlines from, and the machinery to abort a failed gang so the cluster
// can be reused.
type Offload struct {
	group *Group

	// Done is the cluster completion offset from launch time (launch
	// overhead plus the slowest CPE), or sim.Infinity when Stalled.
	Done sim.Time
	// Estimate is what Done would have been on healthy hardware — the
	// basis for the scheduler's offload deadline.
	Estimate sim.Time
	// Stalled reports an injected gang hang: the completion flag never
	// reaches the CPE count and the group stays busy until Abort.
	Stalled bool

	launch uint64 // the group's launch number this handle belongs to
	// start is the launching process's clock; finish is the time of the
	// last completion event (Infinity when stalled).
	start, finish sim.Time
}

// DoneBy reports whether the offload's last completion event — the one that
// brings the flag to the gang width and frees the group — precedes an
// observation at clock t by a process that has charged since the launch:
// it is due by t and was issued before t. A process whose clock is ahead
// of the calendar may see true while that event is still pending, and must
// meet the calendar (sim.Process.Sync) before it reads the flag.
func (o *Offload) DoneBy(t sim.Time) bool { return o.finish <= t && o.start < t }

// Abort cancels the offload's pending completion-flag increments (the
// busy-clear rides on the last of them) and frees the cluster for a new
// launch. Increments that have already fired remain (callers reset the flag
// before reusing it). Idempotent, and inert once the group has launched
// again.
func (o *Offload) Abort() {
	g := o.group
	if o.launch != g.launches {
		return
	}
	for i := range g.done {
		g.done[i].event.Cancel()
	}
	g.busy = false
}

// Launch offloads body across the CPE cluster. body runs once per CPE (in
// CPE-ID order, on the caller's goroutine — the emulation is sequential but
// the accounted times are parallel). activeCPEs is the number of CPEs that
// will issue DMA (for memory-controller contention); pass the number of
// CPEs with nonempty tile assignments, or the full cluster size.
//
// On return, every CPE's work is accounted; flag receives one faaw
// increment per CPE at that CPE's virtual finish time (CPEs finishing at the
// same instant share one calendar event). The handle's Done is the
// cluster's completion time offset from "now" (launch overhead plus the
// slowest CPE), which callers in synchronous mode may simply wait for. The
// group is marked busy until the last increment fires.
//
// When the core group has a fault injector attached, each launch draws a
// fate: a straggling gang runs its compute a constant factor slower, and a
// stalled gang hangs — its last CPE never reports completion, Done is
// sim.Infinity — until the caller aborts it through the handle.
func (g *Group) Launch(spec KernelSpec, activeCPEs int, flag *sim.Counter, body func(c *CPE)) *Offload {
	if g.busy {
		panic("athread: overlapping offloads on one CPE cluster")
	}
	g.busy = true
	g.slab = g.slab[:0]
	g.done = g.done[:0]
	g.launches++
	p := &g.cg.Params
	if activeCPEs < 1 || activeCPEs > p.NumCPEs {
		activeCPEs = g.cpes
	}
	g.cg.Counters.Offloads++

	stall := false
	factor := sim.Time(1)
	if g.cg.Faults != nil {
		s, f := g.cg.Faults.OffloadFate(g.cg.ID)
		stall = s
		factor = sim.Time(f)
	}

	launch := sim.Time(p.OffloadCost)
	now := g.cg.Engine().Now()
	off := &Offload{group: g, Stalled: stall, launch: g.launches, start: now}
	dmaBefore := g.cg.Counters.DMABytes
	var last, lastHealthy sim.Time
	// One CPE context is reused across the gang: bodies run to completion
	// serially and never retain their context, so a single object stands in
	// for all 64 CPEs. The launch-wide fields are set once; only the
	// per-CPE ones are reset.
	cpe := &g.cpe
	cpe.group, cpe.spec, cpe.active = g, spec, activeCPEs
	for id := 0; id < g.cpes; id++ {
		cpe.ID, cpe.elapsed, cpe.ldmUsed = id, 0, 0
		cpe.firstTile, cpe.tileDMA, cpe.tileCompute = true, 0, 0
		body(cpe)
		if cpe.ldmUsed != 0 {
			panic(fmt.Sprintf("athread: CPE %d leaked %d B of LDM", id, cpe.ldmUsed))
		}
		// Fold any unclosed overlapped-tile accumulators serially.
		cpe.elapsed += cpe.tileDMA + cpe.tileCompute
		healthy := launch + cpe.elapsed + sim.Time(p.FaawCost)
		if healthy > lastHealthy {
			lastHealthy = healthy
		}
		finish := launch + cpe.elapsed*factor + sim.Time(p.FaawCost)
		if finish > last {
			last = finish
		}
		if stall && id == g.cpes-1 {
			// The hung CPE never faaw-updates the flag: the offload can
			// only be cleared by Abort.
			continue
		}
		g.cg.Counters.FaawOps++
		g.finishAt(finish, flag)
	}
	off.Estimate = lastHealthy
	// The CPE bodies accounted their memory<->LDM transfers above; feed
	// the delta to the flight recorder (a plain method call on a possibly
	// nil probe set — no obs dependency, no cost when disabled).
	g.cg.Probes.DMA(now, g.cg.Counters.DMABytes-dmaBefore)
	off.Done, off.finish = last, now+last
	if stall {
		off.Done, off.finish = sim.Infinity, sim.Infinity
	}
	for i := range g.done {
		c := &g.done[i]
		if !stall && c.at == last {
			c.group = g
		}
		c.event = g.cg.Engine().ScheduleCall(c.at, c)
	}
	return off
}

// finishAt counts one more CPE completing at offset at. A uniform tiling
// has one or two distinct finish times, so the scan is short; with machine
// noise every CPE differs and the list degrades to one entry per CPE.
func (g *Group) finishAt(at sim.Time, flag *sim.Counter) {
	for i := range g.done {
		if g.done[i].at == at {
			g.done[i].n++
			return
		}
	}
	g.done = append(g.done, completion{at: at, n: 1, flag: flag})
}
