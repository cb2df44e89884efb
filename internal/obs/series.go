package obs

// Series is one fixed-interval virtual-time sample track. It records a
// piecewise-constant quantity (queue depth, in-flight bytes, cumulative
// DMA traffic, ...) by holding the current value and lazily committing
// grid samples: the sample at grid instant t_k = k*interval is written
// only once a transition strictly later than t_k arrives (or Finalize
// runs), and therefore always equals the value after *all* transitions at
// or before t_k. Two same-instant updates may arrive in either order —
// as they do when the sharded engine executes a virtual instant on
// concurrent goroutines in nondeterministic wall order — and the
// committed samples come out identical either way.
//
// When the sample buffer reaches its cap the series decimates: every
// other sample is dropped and the interval doubles. Because the kept
// samples are the even grid indices, the surviving grid is exactly the
// coarser grid's prefix and committing continues seamlessly — so all
// series driven with the same (interval, cap) stay in lockstep and a run
// of any virtual length fits in bounded memory.
//
// A nil *Series is a valid no-op recorder: every method returns
// immediately without allocating.
type Series struct {
	interval float64
	max      int
	cur      float64
	next     int     // grid index of the next uncommitted sample
	nextT    float64 // cached float64(next)*interval: the next grid instant
	samples  []float64
	pending  []transition // min-heap on (at, seq)
	pseq     uint64
}

// transition is a future-dated delta: the sender knows at post time when
// an in-flight message lands, so the decrement is queued here and applied
// lazily instead of being scheduled as an event on another rank's engine.
type transition struct {
	at    float64
	seq   uint64
	delta float64
}

// NewSeries builds a series on the given grid. max is rounded up to even
// so that decimation (keep the even indices, double the interval) lands
// the next push exactly on the coarser grid.
func NewSeries(interval float64, max int) *Series {
	if max%2 != 0 {
		max++
	}
	return &Series{interval: interval, max: max}
}

// Observe sets the current value as of virtual time t.
func (s *Series) Observe(t, v float64) {
	if s == nil {
		return
	}
	s.advance(t)
	s.cur = v
}

// Add applies a delta to the current value as of virtual time t.
func (s *Series) Add(t, dv float64) {
	if s == nil {
		return
	}
	s.advance(t)
	s.cur += dv
}

// AddAt records, at time t, a delta that takes effect at the future
// instant at (clamped to t). The delta is applied lazily when a later
// update or Finalize reaches it.
func (s *Series) AddAt(t, at, dv float64) {
	if s == nil {
		return
	}
	s.advance(t)
	if at < t {
		at = t
	}
	s.pseq++
	s.pushPending(transition{at: at, seq: s.pseq, delta: dv})
}

// Interval returns the current grid interval (it doubles on decimation).
func (s *Series) Interval() float64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Samples returns a copy of the committed samples.
func (s *Series) Samples() []float64 {
	if s == nil || len(s.samples) == 0 {
		return nil
	}
	out := make([]float64, len(s.samples))
	copy(out, s.samples)
	return out
}

// Finalize drains pending transitions due by end and commits every grid
// sample at or before end (inclusive, unlike the strict commit driven by
// live transitions — the run is over, so the value at the boundary is
// final). Calling it again with a later end simply continues the series.
func (s *Series) Finalize(end float64) {
	if s == nil {
		return
	}
	s.advance(end)
	for s.nextT <= end {
		s.push(s.cur)
	}
}

// advance applies pending transitions due at or before t, committing the
// grid samples each one proves out, then commits samples strictly before
// t itself. The hooks fire orders of magnitude more often than the grid
// commits (event granularity is nanoseconds, the grid tens of
// microseconds), so the everything-already-committed case must stay two
// comparisons — that fast path is the sampler's main lever on bench's
// obs.overhead_frac.
func (s *Series) advance(t float64) {
	if len(s.pending) > 0 && s.pending[0].at <= t {
		s.drainPending(t)
	}
	if s.nextT < t {
		s.commitBefore(t)
	}
}

// drainPending applies pending transitions due at or before t in (at,
// seq) order, committing the grid samples each one proves out.
func (s *Series) drainPending(t float64) {
	for len(s.pending) > 0 && s.pending[0].at <= t {
		tr := s.popPending()
		s.commitBefore(tr.at)
		s.cur += tr.delta
	}
}

// commitBefore commits grid samples strictly before t with the held
// value: an update at t proves the value held through every earlier grid
// instant, while the sample at t itself stays open for same-instant
// updates still to come.
//
// Committing is batched: the value is constant between updates, so a
// whole run of grid points lands as one slice fill instead of one call
// per point. The batch length starts from a float division and is then
// fixed against the exact per-index comparison (float64(idx)*interval <
// t, monotone in idx), so the committed samples are bit-identical to the
// one-at-a-time loop this replaces — only ~20x cheaper on the dense
// grids the e2e cases commit.
func (s *Series) commitBefore(t float64) {
	for s.nextT < t {
		if len(s.samples) >= s.max {
			s.decimate()
			continue
		}
		if s.samples == nil {
			// A series that commits at all almost always commits
			// hundreds of samples (the grid spans the whole run), so
			// allocate the full cap once instead of growing.
			s.samples = make([]float64, 0, s.max)
		}
		avail := s.max - len(s.samples)
		n := int((t - s.nextT) / s.interval)
		if n < 1 {
			n = 1
		}
		if n > avail {
			n = avail
		}
		for n > 1 && float64(s.next+n-1)*s.interval >= t {
			n--
		}
		for n < avail && float64(s.next+n)*s.interval < t {
			n++
		}
		l := len(s.samples)
		s.samples = s.samples[:l+n]
		for i := l; i < l+n; i++ {
			s.samples[i] = s.cur
		}
		s.next += n
		s.nextT = float64(s.next) * s.interval
	}
}

// decimate drops every other sample and doubles the grid interval. The
// kept samples are the even grid indices, so the surviving grid is the
// coarser grid's prefix and committing continues seamlessly.
func (s *Series) decimate() {
	half := len(s.samples) / 2
	for i := 0; i < half; i++ {
		s.samples[i] = s.samples[2*i]
	}
	s.samples = s.samples[:half]
	s.interval *= 2
	s.next = half
	s.nextT = float64(s.next) * s.interval
}

// push appends one committed sample, decimating first when full.
func (s *Series) push(v float64) {
	if s.samples == nil {
		s.samples = make([]float64, 0, s.max)
	}
	if len(s.samples) >= s.max {
		s.decimate()
	}
	s.samples = append(s.samples, v)
	s.next++
	s.nextT = float64(s.next) * s.interval
}

// pushPending / popPending maintain the min-heap on (at, seq). seq breaks
// ties so same-instant future deltas apply in post order.
func (s *Series) pushPending(tr transition) {
	s.pending = append(s.pending, tr)
	i := len(s.pending) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !transitionLess(s.pending[i], s.pending[p]) {
			break
		}
		s.pending[i], s.pending[p] = s.pending[p], s.pending[i]
		i = p
	}
}

func (s *Series) popPending() transition {
	top := s.pending[0]
	n := len(s.pending) - 1
	s.pending[0] = s.pending[n]
	s.pending = s.pending[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && transitionLess(s.pending[l], s.pending[small]) {
			small = l
		}
		if r < n && transitionLess(s.pending[r], s.pending[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.pending[i], s.pending[small] = s.pending[small], s.pending[i]
		i = small
	}
	return top
}

func transitionLess(a, b transition) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
