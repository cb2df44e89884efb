package obs

import "sunuintah/internal/sim"

// RankProbes is one rank's probe set: the hook surface the scheduler, MPI
// model, core groups and athread layer call into. Each instance is
// mutated only from its own rank's engine events, so sharded runs touch
// it without locks or races. A nil *RankProbes is the zero-cost disabled
// recorder: every hook returns immediately without allocating (locked by
// an AllocsPerRun test).
type RankProbes struct {
	rank int

	queue     *Series // ready/remaining task objects this step
	prepared  *Series // work-ahead objects staged for offload
	gangs     *Series // CPE gangs with an offload in flight
	inflight  *Series // MPI messages posted but not yet delivered
	inflightB *Series // bytes on the wire
	dma       *Series // cumulative LDM DMA bytes
	mem       *Series // live MPE allocation bytes
	// faults/recoveries are created lazily on the first event so that
	// fault-free runs omit the (all-zero) series entirely. Lazy creation
	// commits the same leading zeros an eager series would: a fresh
	// series holds cur=0, so its first advance backfills zero samples.
	faults *Series
	recov  *Series
}

// eagerSeries is the number of always-on series per rank; the sampler
// backs them with one contiguous arena (see NewSampler).
const eagerSeries = 7

// newRankProbes carves the rank's eager series out of the sampler's
// arenas: ser holds eagerSeries Series structs, buf holds
// eagerSeries*MaxSamples floats. Lazily created series (faults,
// recoveries) still self-allocate — most runs never touch them.
func newRankProbes(rank int, ser []Series, buf []float64) *RankProbes {
	i := 0
	mk := func() *Series {
		s := &ser[i]
		lo, hi := i*DefaultMaxSamples, (i+1)*DefaultMaxSamples
		*s = Series{interval: DefaultInterval, max: DefaultMaxSamples,
			samples: buf[lo:lo:hi]}
		i++
		return s
	}
	return &RankProbes{
		rank:  rank,
		queue: mk(), prepared: mk(), gangs: mk(),
		inflight: mk(), inflightB: mk(), dma: mk(), mem: mk(),
	}
}

// QueueDepth records the scheduler's remaining-object count at t.
func (p *RankProbes) QueueDepth(t sim.Time, n int) {
	if p == nil {
		return
	}
	p.queue.Observe(float64(t), float64(n))
}

// QueueDelta adjusts the remaining-object count (object completed).
func (p *RankProbes) QueueDelta(t sim.Time, d int) {
	if p == nil {
		return
	}
	p.queue.Add(float64(t), float64(d))
}

// Prepared records the work-ahead (prepared-for-offload) backlog at t.
func (p *RankProbes) Prepared(t sim.Time, n int) {
	if p == nil {
		return
	}
	p.prepared.Observe(float64(t), float64(n))
}

// Gangs records how many CPE gangs have an offload in flight at t.
func (p *RankProbes) Gangs(t sim.Time, n int) {
	if p == nil {
		return
	}
	p.gangs.Observe(float64(t), float64(n))
}

// MsgSent records a posted message of the given size: in-flight counts
// rise at t and fall at the (sender-computed) arrival instant.
func (p *RankProbes) MsgSent(t sim.Time, bytes int64, arrive sim.Time) {
	if p == nil {
		return
	}
	p.inflight.Add(float64(t), 1)
	p.inflight.AddAt(float64(t), float64(arrive), -1)
	p.inflightB.Add(float64(t), float64(bytes))
	p.inflightB.AddAt(float64(t), float64(arrive), -float64(bytes))
}

// DMA adds to the cumulative LDM DMA byte counter at t.
func (p *RankProbes) DMA(t sim.Time, bytes int64) {
	if p == nil {
		return
	}
	p.dma.Add(float64(t), float64(bytes))
}

// Mem records the rank's live MPE allocation footprint at t.
func (p *RankProbes) Mem(t sim.Time, bytes int64) {
	if p == nil {
		return
	}
	p.mem.Observe(float64(t), float64(bytes))
}

// Fault bumps the cumulative injected/observed fault counter at t.
func (p *RankProbes) Fault(t sim.Time) {
	if p == nil {
		return
	}
	if p.faults == nil {
		p.faults = NewSeries(DefaultInterval, DefaultMaxSamples)
	}
	p.faults.Add(float64(t), 1)
}

// Recovery bumps the cumulative recovery-action counter at t.
func (p *RankProbes) Recovery(t sim.Time) {
	if p == nil {
		return
	}
	if p.recov == nil {
		p.recov = NewSeries(DefaultInterval, DefaultMaxSamples)
	}
	p.recov.Add(float64(t), 1)
}

// finalize commits every series (lazily created ones may still be nil —
// nil *Series methods no-op) up to and including end.
func (p *RankProbes) finalize(end float64) {
	for _, s := range []*Series{
		p.queue, p.prepared, p.gangs, p.inflight, p.inflightB,
		p.dma, p.mem, p.faults, p.recov,
	} {
		s.Finalize(end)
	}
}
