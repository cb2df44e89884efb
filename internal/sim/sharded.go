package sim

import (
	"fmt"
	"strings"
)

// mailItem is one staged cross-shard event: a callback (a closure or an
// allocation-free Caller) to run at an absolute virtual time on another
// shard's engine. Each destination's items are merged at every barrier in
// the canonical (at, postTime, srcShard, seq) order, so the destination
// engine sees the same tie-break order regardless of how ranks are
// partitioned into shards.
type mailItem struct {
	at       Time
	postTime Time
	srcShard int
	seq      uint64
	fn       func()
	c        Caller
}

// mailLess is the canonical merge order.
func mailLess(a, b *mailItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.postTime != b.postTime {
		return a.postTime < b.postTime
	}
	if a.srcShard != b.srcShard {
		return a.srcShard < b.srcShard
	}
	return a.seq < b.seq
}

// sortMail orders a batch by mailLess with an in-place heapsort: zero
// allocations (the generic sort packages escape a closure or an interface
// per call), deterministic because the key is a total order — no two items
// share (at, postTime, srcShard, seq).
func sortMail(items []mailItem) {
	n := len(items)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMail(items, i, n)
	}
	for i := n - 1; i > 0; i-- {
		items[0], items[i] = items[i], items[0]
		siftDownMail(items, 0, i)
	}
}

// siftDownMail maintains a max-heap on mailLess over items[i:n).
func siftDownMail(items []mailItem, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && mailLess(&items[c], &items[c+1]) {
			c++
		}
		if !mailLess(&items[i], &items[c]) {
			return
		}
		items[i], items[c] = items[c], items[i]
		i = c
	}
}

// ShardSet is a conservative discrete-event coordinator: it owns
// S engines (shards), each with its own calendar and process set, and
// advances them in lookahead windows. The lookahead is a per-shard-pair
// latency matrix: lat[j][i] is the minimum virtual latency of any
// interaction from shard j to shard i (for the simulated Sunway, the
// interconnect's first-byte time between the closest rank pair crossing
// that shard boundary). An event executed on shard j at time t can only
// affect shard i at t+lat[j][i] or later, so shard i may safely run ahead
// to min over j of (next_j + lat[j][i]) — throttling only on neighbours
// that can actually reach it inside the window, not on a single global
// minimum. Cross-shard effects are staged in per-destination outboxes and
// exchanged at a deterministic barrier between windows.
//
// The contract is bit-identical results: for a model whose only cross-
// shard channels are Post/PostCall/PostTagged with delivery delays of at
// least the pair's lookahead, a ShardSet run produces the same virtual
// timestamps, the same event outcomes, and the same final state as the
// single-engine run, for every shard count.
type ShardSet struct {
	engines []*Engine
	// lat[i][j] is the minimum latency of an i -> j interaction. The
	// diagonal is unused (same-shard effects are ordinary calendar
	// events). Entries may be Infinity (that pair never interacts).
	lat     [][]Time
	stopReq bool

	// inbox[d] is shard d's reusable merge buffer at the barrier.
	inbox [][]mailItem
	next  []Time
}

// NewShardSet creates n engines coordinated with one uniform lookahead for
// every shard pair — the conservative special case of the latency matrix.
func NewShardSet(n int, lookahead Time) *ShardSet {
	if n < 1 {
		panic("sim: shard set needs at least one engine")
	}
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	lat := make([][]Time, n)
	for i := range lat {
		lat[i] = make([]Time, n)
		for j := range lat[i] {
			lat[i][j] = lookahead
		}
	}
	return NewShardSetLatencies(lat)
}

// NewShardSetLatencies creates len(lat) engines coordinated by a
// per-shard-pair latency matrix: lat[i][j] is the minimum virtual latency
// of any interaction from shard i to shard j. The matrix must be square
// and every off-diagonal entry positive (a zero or negative pair lookahead
// admits no window and would livelock the coordinator); Infinity marks a
// pair that never interacts. The diagonal is ignored.
func NewShardSetLatencies(lat [][]Time) *ShardSet {
	n := len(lat)
	if n < 1 {
		panic("sim: shard set needs at least one engine")
	}
	own := make([][]Time, n)
	for i, row := range lat {
		if len(row) != n {
			panic(fmt.Sprintf("sim: latency matrix row %d has %d entries, want %d", i, len(row), n))
		}
		own[i] = make([]Time, n)
		copy(own[i], row)
		for j, l := range row {
			if i == j {
				continue
			}
			if l <= 0 {
				panic(fmt.Sprintf("sim: non-positive lookahead %v for shard pair (%d,%d)", l, i, j))
			}
		}
	}
	ss := &ShardSet{lat: own,
		inbox: make([][]mailItem, n),
		next:  make([]Time, n)}
	for i := 0; i < n; i++ {
		e := NewEngine()
		e.shardSet = ss
		e.shardID = i
		e.outbox = make([][]mailItem, n)
		ss.engines = append(ss.engines, e)
	}
	return ss
}

// Engine returns shard i's engine.
func (ss *ShardSet) Engine(i int) *Engine { return ss.engines[i] }

// Post schedules fn to run at absolute time at on dst. With dst the
// posting engine it is a plain ScheduleAt; otherwise the event is staged
// in src's per-destination outbox and injected at the next barrier, which
// requires at >= src.Now() + lat[src][dst]. Must be called from
// src's executing event (or before Run starts).
func (ss *ShardSet) Post(src, dst *Engine, at Time, fn func()) {
	if src == dst {
		src.ScheduleAt(at, fn)
		return
	}
	ss.checkMailTime(src, dst, at)
	src.outbox[dst.shardID] = append(src.outbox[dst.shardID], mailItem{
		at: at, postTime: src.now, srcShard: src.shardID, seq: src.mailSeq, fn: fn})
	src.mailSeq++
	ss.capOutbound(src, dst.shardID, at)
}

// PostCall is Post with an allocation-free Caller in place of a closure —
// the batched-mail fast path of the simulated MPI library.
func (ss *ShardSet) PostCall(src, dst *Engine, at Time, c Caller) {
	if src == dst {
		src.CallAt(at, c)
		return
	}
	ss.checkMailTime(src, dst, at)
	src.outbox[dst.shardID] = append(src.outbox[dst.shardID], mailItem{
		at: at, postTime: src.now, srcShard: src.shardID, seq: src.mailSeq, c: c})
	src.mailSeq++
	ss.capOutbound(src, dst.shardID, at)
}

// capOutbound shrinks the source's running window so it cannot outrun a
// reply to mail it just posted: the destination may act at the mail's time
// and affect the source lat[dst][src] later. Without the cap a wide window
// (an idle destination does not constrain the end computation) could run
// past that reply, breaking causality at the next injection. Latency
// matrices are assumed to satisfy the triangle inequality, as the physical
// interconnect model's do, so capping the poster alone also protects third
// shards.
func (ss *ShardSet) capOutbound(src *Engine, dstID int, at Time) {
	if w := at + ss.lat[dstID][src.shardID]; w < src.outMailAt {
		src.outMailAt = w
	}
}

// checkMailTime enforces the conservative contract at the source: mail
// that could arrive inside the current window would already have been
// missed by the destination's window end.
func (ss *ShardSet) checkMailTime(src, dst *Engine, at Time) {
	if la := ss.lat[src.shardID][dst.shardID]; at < src.now+la {
		panic(fmt.Sprintf("sim: cross-shard mail at %v from shard %d (now %v) violates the pair lookahead %v to shard %d",
			at, src.shardID, src.now, la, dst.shardID))
	}
}

// PostTagged stages a globally-ordered cross-shard event: items with the
// same (at, postTime) are ordered by tag alone and sort ahead of ordinary
// mail, independent of which shard happened to post them. Collectives use
// it so the completion events they fan out to every rank are injected in
// rank order no matter which contributor arrived last. Unlike Post it
// always goes through the barrier, even to the posting shard itself.
func (ss *ShardSet) PostTagged(src, dst *Engine, at, postTime Time, tag uint64, c Caller) {
	src.outbox[dst.shardID] = append(src.outbox[dst.shardID], mailItem{
		at: at, postTime: postTime, srcShard: -1, seq: tag, c: c})
	if dst == src {
		if at < src.selfMailAt {
			// The window must not run past the undelivered self-send.
			src.selfMailAt = at
		}
		return
	}
	ss.capOutbound(src, dst.shardID, at)
}

// RequestStop asks the coordinator to stop every shard at the next
// barrier. It is how a shard's event propagates Engine.Stop or Interrupt
// to its siblings.
func (ss *ShardSet) RequestStop() { ss.stopReq = true }

// Interrupted returns the first interrupt reason recorded on any shard,
// in shard order, or "".
func (ss *ShardSet) Interrupted() string {
	for _, e := range ss.engines {
		if e.interrupted != "" {
			return e.interrupted
		}
	}
	return ""
}

// Now returns the latest virtual time any shard has reached.
func (ss *ShardSet) Now() Time {
	max := Time(0)
	for _, e := range ss.engines {
		if e.now > max {
			max = e.now
		}
	}
	return max
}

// AlignNow advances every shard's clock to the global maximum and returns
// it. Called between run segments (checkpoint intervals), where the
// single-engine simulation carries one clock across segments: newly
// spawned processes must start at the same instant on every shard. Safe
// once the calendars are drained — pop skips cancelled leftovers before
// the before-now check.
func (ss *ShardSet) AlignNow() Time {
	max := ss.Now()
	for _, e := range ss.engines {
		if e.now < max {
			e.now, e.cal = max, max
		}
	}
	return max
}

// Flush merges every outbox in canonical per-destination order and
// injects the items into their destination calendars: one sorted batch
// append per destination instead of a per-message post. The destination
// assigns its event sequence numbers in merge order, so same-time ties at
// a receiver resolve identically for every shard count. Run performs the
// same exchange at every barrier; Flush is exported for staging mail
// before Run starts (setup phases, measurements).
func (ss *ShardSet) Flush() {
	for _, e := range ss.engines {
		e.selfMailAt = Infinity
		e.outMailAt = Infinity
	}
	for d, de := range ss.engines {
		batch := ss.inbox[d][:0]
		for _, e := range ss.engines {
			batch = append(batch, e.outbox[d]...)
			e.outbox[d] = e.outbox[d][:0]
		}
		ss.inbox[d] = batch
		if len(batch) == 0 {
			continue
		}
		if len(batch) > 1 {
			sortMail(batch)
		}
		de.injectMail(batch)
		// Drop the callback references so the reusable buffer does not
		// pin closures or envelopes until the next barrier overwrites it.
		for i := range batch {
			batch[i].fn, batch[i].c = nil, nil
		}
	}
}

// Run drives every shard until all calendars drain, a stop or interrupt
// is requested, or the model deadlocks (panic, as in Engine.RunUntil).
// It returns the latest virtual time reached.
//
// Each iteration delivers staged mail, computes per-shard window ends —
// shard i may run to min over other shards j of (next_j + lat[j][i]), so
// a shard only throttles on neighbours that can reach it, and a shard
// that is alone in a stretch of virtual time crosses it in one window —
// and executes the eligible shards one after another on the caller's
// goroutine. Shards within a window are independent by construction, so
// running them in parallel would give the same results, but on the
// 128-rank halo case a step is ~1500 barriers of ~2.4 runnable shards and
// ~7 events (~3 us) each: handing a window to another thread costs more
// than the window (DESIGN.md §7, "Window dispatch").
func (ss *ShardSet) Run() Time {
	// A panic leaving the loop — a process body's or the deadlock report —
	// ends the run as surely as a stop does.
	defer func() {
		if r := recover(); r != nil {
			ss.releaseProcesses()
			panic(r)
		}
	}()
	for {
		ss.Flush()

		// Propagate stops and interrupts recorded during the last window.
		reason := ss.Interrupted()
		stopped := ss.stopReq
		for _, e := range ss.engines {
			if e.stopped {
				stopped = true
			}
		}
		if reason != "" || stopped {
			for _, e := range ss.engines {
				if reason != "" && e.interrupted == "" {
					e.interrupted = reason
				}
				e.stopped = true
			}
			ss.releaseProcesses()
			return ss.Now()
		}

		idle := true
		for i, e := range ss.engines {
			t := e.NextEventTime()
			ss.next[i] = t
			if t < Infinity {
				idle = false
			}
		}
		if idle {
			active := 0
			for _, e := range ss.engines {
				active += len(e.procs)
			}
			if active > 0 {
				var rosters []string
				for _, e := range ss.engines {
					if len(e.procs) > 0 {
						rosters = append(rosters, e.blockedRoster())
					}
				}
				panic("sim: deadlock: " + strings.Join(rosters, ", "))
			}
			return ss.Now()
		}

		// The shard holding the globally earliest event is always
		// runnable (its window end exceeds its next event by at least the
		// smallest positive pair lookahead), so progress is guaranteed.
		for i, e := range ss.engines {
			end := Infinity
			for j := range ss.engines {
				if j == i || ss.next[j] == Infinity {
					continue
				}
				if w := ss.next[j] + ss.lat[j][i]; w < end {
					end = w
				}
			}
			if ss.next[i] < end {
				e.RunWindow(end)
			}
		}
	}
}

// releaseProcesses unwinds the parked processes of every shard.
func (ss *ShardSet) releaseProcesses() {
	for _, e := range ss.engines {
		e.releaseProcesses()
	}
}
