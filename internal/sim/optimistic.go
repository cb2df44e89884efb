package sim

import "fmt"

// StateSaver snapshots and restores one piece of per-shard model state.
// An optimistic shard's registered savers are saved together with the
// engine calendar before a speculative window and restored on rollback.
// SaveState must return a self-contained value: later mutation of the
// live state must not alter it (deep-copy mutable structures).
type StateSaver interface {
	SaveState() any
	RestoreState(any)
}

// OptConfig tunes the optimistic (Time-Warp) coordinator.
type OptConfig struct {
	// MaxDepth bounds speculation: a shard may run up to MaxDepth quanta
	// past its conservative window end. 0 disables speculation entirely —
	// the set then runs the conservative coordinator's exact code path.
	MaxDepth int
	// Quantum is the virtual-time length of one speculation depth unit.
	// Defaults to the narrowest pair lookahead.
	Quantum Time
	// SnapEvery is the base snapshot interval in windows (default 1:
	// snapshot before every window). The adaptive policy stretches the
	// interval up to 8x on clean streaks and snaps back to the base after
	// a rollback.
	SnapEvery int
}

// OptStats summarises a Time-Warp run.
type OptStats struct {
	Windows          int64  // coordinator barriers
	SpecWindows      int64  // shard-windows that ran past their conservative end
	Snapshots        int64  // state snapshots taken
	Rollbacks        int64  // straggler-triggered restores
	CascadeRollbacks int64  // restores forced by an anti-message arriving late
	AntiMessages     int64  // sent messages annihilated
	DupSends         int64  // coast-forward re-sends suppressed as duplicates
	EventsExecuted   uint64 // events run, including re-execution after rollback
	EventsRolledBack uint64 // executed events whose effects were undone
	MailInjected     int64  // cross-shard messages delivered
	// SnapshotBytes estimates the state volume copied into snapshots
	// (calendar events plus saver states, at a fixed per-entry size) —
	// telemetry for the snapshot-interval policy, not an allocator
	// measurement.
	SnapshotBytes int64
	// FinalDepth is the highest per-shard AIMD speculation depth at the
	// moment Stats was taken — where the throttle settled.
	FinalDepth int
	GVT        Time // last computed global virtual time
	// Degraded reports that Run fell back to the conservative coordinator
	// (MaxDepth 0, or live processes — goroutine stacks cannot roll back).
	Degraded bool
}

// RollbackFrac returns the fraction of executed events that were later
// rolled back — the health metric the adaptive throttle is minimising.
func (s OptStats) RollbackFrac() float64 {
	if s.EventsExecuted == 0 {
		return 0
	}
	return float64(s.EventsRolledBack) / float64(s.EventsExecuted)
}

// optMsg is one cross-shard message under optimistic coordination. The
// same struct is shared by the sender's sent log (for anti-messages), the
// destination's input log (for re-injection after rollback), and the
// barrier's pending list, so annihilation is a single flag flip visible
// to all three.
type optMsg struct {
	item        mailItem
	src, dst    int
	handle      EventHandle // current calendar entry at dst; refreshed on re-injection
	injected    bool
	annihilated bool
}

// msgKey identifies a logical message by the canonical merge quad, which
// the engine already guarantees is globally unique. Re-execution after a
// rollback reproduces the quad exactly (mailSeq is restored with the
// snapshot), which is what makes coast-forward duplicate suppression a
// map lookup.
type msgKey struct {
	at       Time
	postTime Time
	srcShard int
	seq      uint64
}

// optSnapshot is one shard's saved state: the engine calendar (local
// events only — mail is re-injected from the input log, refreshing the
// anti-message handles) plus every registered saver's state.
type optSnapshot struct {
	at           Time
	seq, mailSeq uint64
	executed     uint64
	events       []event
	state        []any
	anchor       bool // the pristine pre-execution snapshot taken at Run entry
}

// optShard is the coordinator's per-shard bookkeeping.
type optShard struct {
	savers []StateSaver
	snaps  []*optSnapshot
	// adaptive throttle: depth quanta of allowed speculation, grown on
	// clean windows, halved on rollback.
	depth       int
	cleanStreak int
	// adaptive snapshot interval.
	sinceSnap    int
	snapInterval int
	consEnd      Time // this window's conservative end, for speculation stats
	// coastMax is the highest rollback threshold this shard has restored
	// under: live sends with postTime below it may still be awaiting
	// confirmation by coast-forward re-execution, so input changes below
	// it must rescan the sent log. -Infinity when the shard has never
	// rolled back (the scan is skipped entirely).
	coastMax Time
	// pending holds this barrier's staged inbound messages in canonical
	// order; inLog holds every injected message in injection order;
	// sentLog holds every outbound message in send order; liveSends
	// indexes non-annihilated sends for duplicate suppression.
	pending   []*optMsg
	inLog     []*optMsg
	sentLog   []*optMsg
	liveSends map[msgKey]*optMsg
}

// OptimisticShardSet coordinates shard engines with Time-Warp style
// speculation: a shard may execute events past its conservative lookahead
// window, snapshotting its calendar and registered StateSaver state at
// adaptive intervals. A straggler (cross-shard mail timestamped before the
// destination's clock, detected at the barrier) rolls the destination back
// to the latest snapshot strictly before the straggler, annihilates the
// mail it had sent from the undone span via anti-messages (cascading into
// further rollbacks when the destination already executed them), re-injects
// surviving input mail, and re-executes. Re-sends that coast-forward
// re-execution reproduces verbatim are suppressed as duplicates, so an
// annihilation threshold at the rollback target is safe. GVT — the minimum
// next-event time across shards at the barrier — drives fossil collection:
// snapshots, logs and send indexes strictly below the last snapshot below
// GVT are reclaimed, keeping the event arena and snapshot store bounded.
//
// The contract is the conservative set's bit-identity bar, with two extra
// model obligations: (1) event-driven state only — processes cannot roll
// back, so Run degrades to the conservative coordinator whenever any shard
// has a live process (or MaxDepth is 0), and Spawn panics mid-speculation;
// (2) all mutable model state must be registered through Register, event
// times of distinct events must be distinct across shards (tagged fan-outs
// to different shards may share a time), tagged mail must satisfy
// at >= postTime with postTime the posting shard's clock, and EventHandles
// must not be retained across barriers.
type OptimisticShardSet struct {
	*ShardSet
	cfg    OptConfig
	shards []optShard
	stats  OptStats
	// speculating is true inside runTimeWarp; Spawn consults it.
	speculating bool
}

// NewOptimisticShardSet creates n engines under one uniform lookahead with
// Time-Warp coordination.
func NewOptimisticShardSet(n int, lookahead Time, cfg OptConfig) *OptimisticShardSet {
	return newOptimistic(NewShardSet(n, lookahead), cfg)
}

// NewOptimisticLatencies creates engines coordinated by a per-shard-pair
// latency matrix (see NewShardSetLatencies) with Time-Warp coordination.
func NewOptimisticLatencies(lat [][]Time, cfg OptConfig) *OptimisticShardSet {
	return newOptimistic(NewShardSetLatencies(lat), cfg)
}

func newOptimistic(ss *ShardSet, cfg OptConfig) *OptimisticShardSet {
	if cfg.MaxDepth < 0 {
		panic("sim: optimistic MaxDepth must be non-negative")
	}
	if cfg.Quantum < 0 {
		panic("sim: optimistic Quantum must be non-negative")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = ss.minLat
	}
	if cfg.SnapEvery < 1 {
		cfg.SnapEvery = 1
	}
	o := &OptimisticShardSet{ShardSet: ss, cfg: cfg, shards: make([]optShard, len(ss.engines))}
	for i := range o.shards {
		sh := &o.shards[i]
		sh.depth = min(1, cfg.MaxDepth)
		sh.snapInterval = cfg.SnapEvery
		sh.liveSends = map[msgKey]*optMsg{}
	}
	ss.opt = o
	return o
}

// Register attaches a saver to shard i's snapshot set. Every piece of
// mutable model state the shard's events touch must be registered, or a
// rollback would resurrect the calendar against unrewound state.
func (o *OptimisticShardSet) Register(shard int, s StateSaver) {
	o.shards[shard].savers = append(o.shards[shard].savers, s)
}

// Stats returns a snapshot of the coordinator's counters. EventsExecuted
// counts every event run including re-execution (the engines' own counters
// are rewound on restore, so the rolled-back work is added back here).
func (o *OptimisticShardSet) Stats() OptStats {
	st := o.stats
	for _, e := range o.engines {
		st.EventsExecuted += e.executed
	}
	st.EventsExecuted += st.EventsRolledBack
	for i := range o.shards {
		if d := o.shards[i].depth; d > st.FinalDepth {
			st.FinalDepth = d
		}
	}
	return st
}

// Run drives the shards to completion, like ShardSet.Run. With MaxDepth 0
// or any live process it is exactly the conservative coordinator (the
// Degraded stat records the fallback); otherwise it runs Time-Warp.
func (o *OptimisticShardSet) Run() Time {
	active := 0
	for _, e := range o.engines {
		active += e.active
	}
	if o.cfg.MaxDepth == 0 || active > 0 {
		o.stats.Degraded = true
		return o.ShardSet.Run()
	}
	return o.runTimeWarp()
}

// resetSpec clears speculation state between Run segments: snapshots and
// logs from a previous segment reference a dead virtual-time span.
func (o *OptimisticShardSet) resetSpec() {
	for i := range o.shards {
		sh := &o.shards[i]
		sh.snaps = sh.snaps[:0]
		sh.pending = sh.pending[:0]
		sh.inLog = sh.inLog[:0]
		sh.sentLog = sh.sentLog[:0]
		clear(sh.liveSends)
		sh.sinceSnap = 0
		sh.coastMax = -Infinity
	}
}

func (o *OptimisticShardSet) runTimeWarp() Time {
	o.speculating = true
	defer func() { o.speculating = false }()
	o.resetSpec()
	for i := range o.shards {
		o.snapshot(i)
		o.shards[i].snaps[0].anchor = true
	}

	wr := newWindowRunner(o.engines)
	defer wr.close()

	for {
		o.collectMail()
		o.repairStragglers()
		o.injectPending()

		reason := o.Interrupted()
		stopped := o.stopReq.Load()
		for _, e := range o.engines {
			if e.stopped {
				stopped = true
			}
		}
		if reason != "" || stopped {
			for _, e := range o.engines {
				if reason != "" && e.interrupted == "" {
					e.interrupted = reason
				}
				e.stopped = true
			}
			return o.Now()
		}

		idle := true
		for i, e := range o.engines {
			t := e.NextEventTime()
			o.next[i] = t
			if t < Infinity {
				idle = false
			}
		}
		if idle {
			// Time-Warp mode has no processes (checked at Run entry,
			// enforced by Spawn), so drained calendars mean completion.
			o.resetSpec()
			return o.Now()
		}

		o.fossilCollect()

		// Window ends: the conservative bound per shard, extended by the
		// shard's current speculation depth.
		runnable := 0
		last := -1
		for i := range o.engines {
			end := Infinity
			for j := range o.engines {
				if j == i || o.next[j] == Infinity {
					continue
				}
				if w := o.next[j] + o.lat[j][i]; w < end {
					end = w
				}
			}
			sh := &o.shards[i]
			sh.consEnd = end
			if end < Infinity && sh.depth > 0 {
				end += Time(sh.depth) * o.cfg.Quantum
			}
			o.ends[i] = end
			if o.next[i] < end {
				runnable++
				last = i
			}
		}
		o.stats.Windows++

		// Snapshot ahead of the window at the adaptive interval, so a
		// straggler landing in this window's span has a nearby restore
		// point.
		for i := range o.engines {
			if o.next[i] >= o.ends[i] {
				continue
			}
			sh := &o.shards[i]
			sh.sinceSnap++
			if sh.sinceSnap >= sh.snapInterval {
				o.snapshot(i)
			}
		}
		if o.winObs != nil {
			o.observeOptWindow(runnable)
		}

		wr.run(o.next, o.ends, runnable, last)

		for i := range o.engines {
			sh := &o.shards[i]
			if o.next[i] < o.ends[i] && sh.consEnd < Infinity && o.engines[i].now >= sh.consEnd {
				o.stats.SpecWindows++
			}
		}
	}
}

// collectMail drains every outbox into per-destination pending lists,
// wrapping each item into an optMsg shared by the sender's sent log and —
// once injected — the destination's input log. Re-sends that reproduce a
// live earlier send verbatim (coast-forward after a partial rollback) are
// suppressed here.
func (o *OptimisticShardSet) collectMail() {
	for _, e := range o.engines {
		e.selfMailAt = Infinity
		e.outMailAt = Infinity
	}
	for s, e := range o.engines {
		src := &o.shards[s]
		for d := range o.engines {
			box := e.outbox[d]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				it := box[i]
				box[i].fn, box[i].c = nil, nil
				k := msgKey{it.at, it.postTime, it.srcShard, it.seq}
				if prev, ok := src.liveSends[k]; ok && !prev.annihilated {
					// Coast-forward duplicate: the original survived the
					// sender's rollback and is already at (or headed to)
					// the destination.
					o.stats.DupSends++
					continue
				}
				m := &optMsg{item: it, src: s, dst: d}
				src.liveSends[k] = m
				src.sentLog = append(src.sentLog, m)
				o.shards[d].pending = append(o.shards[d].pending, m)
			}
			e.outbox[d] = box[:0]
		}
	}
	for i := range o.shards {
		if p := o.shards[i].pending; len(p) > 1 {
			sortOptMsgs(p)
		}
	}
}

// repairStragglers applies the repair operation for every shard receiving
// mail this barrier, at the earliest arriving timestamp: a rollback when
// the shard's clock has passed it, and in any case an invalidation of the
// shard's speculative output history from that instant on.
func (o *OptimisticShardSet) repairStragglers() {
	for d := range o.shards {
		t := Infinity
		for _, m := range o.shards[d].pending {
			if !m.annihilated && m.item.at < t {
				t = m.item.at
			}
		}
		if t < Infinity {
			o.repair(d, t)
		}
	}
}

// repair records that shard d's input set changes at virtual time t and
// processes the consequences to a fixpoint. If d's clock has reached t,
// the change is a straggler: d restores the latest snapshot strictly
// before t. In every case, d's history from t onward is being rewritten,
// so its live sends with postTime >= t are annihilated via anti-messages
// — they belong to an execution that will not be reproduced. Live sends
// with postTime < t survive: the coast-forward re-execution up to t sees
// unchanged inputs, reproduces them verbatim, and collectMail suppresses
// the re-sends as duplicates. Every annihilated message is itself an
// input change at its destination, cascading through the same operation
// (a further rollback when the destination had executed it), which is
// what keeps coast-forward sound when inputs change below an earlier
// rollback's target. Thresholds chain upward from arriving-mail times,
// all > GVT, so annihilation never reaches below a fossil horizon.
func (o *OptimisticShardSet) repair(d int, t Time) {
	type req struct {
		shard int
		at    Time
	}
	queue := []req{{d, t}}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		e := o.engines[r.shard]
		sh := &o.shards[r.shard]
		restored := false
		if e.now >= r.at {
			idx := -1
			for i := len(sh.snaps) - 1; i >= 0; i-- {
				if sh.snaps[i].at < r.at {
					idx = i
					break
				}
			}
			if idx < 0 {
				// The only legitimate miss is a target at the pristine Run
				// entry time: restoring the anchor undoes nothing, so "at
				// or before" is as good as "strictly before" there.
				if len(sh.snaps) > 0 && sh.snaps[0].anchor && sh.snaps[0].at <= r.at {
					idx = 0
				} else {
					panic(fmt.Sprintf("sim: optimistic rollback of shard %d to %v has no snapshot (fossil horizon bug)",
						r.shard, r.at))
				}
			}
			snap := sh.snaps[idx]
			o.stats.Rollbacks++
			o.stats.EventsRolledBack += e.executed - snap.executed
			e.restoreSnapshot(snap)
			for si, sv := range sh.savers {
				sv.RestoreState(snap.state[si])
			}
			sh.snaps = sh.snaps[:idx+1]
			sh.depth /= 2
			sh.cleanStreak = 0
			sh.snapInterval = o.cfg.SnapEvery
			sh.sinceSnap = 0
			restored = true
			// Sends kept live below r.at are now ahead of the rewound
			// clock, awaiting confirmation by re-execution; input changes
			// below r.at must re-examine them.
			if r.at > sh.coastMax {
				sh.coastMax = r.at
			}
		}

		// Anti-messages: annihilate live sends from the rewritten span.
		// Without a restore, such sends exist only while coast-forwarding
		// (postTime ahead of the clock), so the coastMax guard skips the
		// scan in the steady state.
		if restored || sh.coastMax >= r.at {
			for _, m := range sh.sentLog {
				if m.annihilated || m.item.postTime < r.at {
					continue
				}
				m.annihilated = true
				delete(sh.liveSends, msgKey{m.item.at, m.item.postTime, m.item.srcShard, m.item.seq})
				o.stats.AntiMessages++
				if !m.injected {
					continue // still pending this barrier; injectPending skips it
				}
				if !m.handle.Cancel() {
					// Already executed at the destination: the cascaded
					// repair below will roll it back.
					o.stats.CascadeRollbacks++
				}
				// Whether the copy was cancelled in the destination's
				// calendar or already executed, the destination's input
				// set changed at m.item.at.
				queue = append(queue, req{m.dst, m.item.at})
			}
		}

		if restored {
			// Re-inject surviving input mail from the undone span with
			// fresh handles (snapshots exclude mail events precisely so
			// this is the single source of truth for in-flight messages).
			for _, m := range sh.inLog {
				if m.annihilated || m.item.at <= e.now {
					continue
				}
				m.handle = e.injectExternal(&m.item)
			}
		}
	}
}

// injectPending delivers this barrier's surviving staged mail in canonical
// order, recording each message in the destination's input log.
func (o *OptimisticShardSet) injectPending() {
	for d := range o.shards {
		sh := &o.shards[d]
		e := o.engines[d]
		for _, m := range sh.pending {
			if m.annihilated {
				continue
			}
			m.handle = e.injectExternal(&m.item)
			m.injected = true
			sh.inLog = append(sh.inLog, m)
			o.stats.MailInjected++
		}
		sh.pending = sh.pending[:0]
	}
}

// Per-entry size estimates behind OptStats.SnapshotBytes: one saved
// calendar event (the event struct) and one opaque saver state (interface
// header plus a small boxed value). Fixed constants keep the counter
// deterministic across architectures.
const (
	snapEventBytes = 64
	snapStateBytes = 32
)

// snapshot saves shard i's engine calendar and registered state.
func (o *OptimisticShardSet) snapshot(i int) {
	e := o.engines[i]
	sh := &o.shards[i]
	snap := &optSnapshot{at: e.now, seq: e.seq, mailSeq: e.mailSeq, executed: e.executed}
	for _, ev := range e.queue.evs {
		if ev.cancelled || ev.external {
			continue
		}
		snap.events = append(snap.events, *ev)
	}
	for _, sv := range sh.savers {
		snap.state = append(snap.state, sv.SaveState())
	}
	sh.snaps = append(sh.snaps, snap)
	sh.sinceSnap = 0
	o.stats.Snapshots++
	o.stats.SnapshotBytes += int64(len(snap.events))*snapEventBytes +
		int64(len(snap.state))*snapStateBytes
	// A clean stretch of windows earns back speculation depth and a
	// longer snapshot interval.
	sh.cleanStreak++
	if sh.cleanStreak >= 4 {
		sh.cleanStreak = 0
		if sh.depth < o.cfg.MaxDepth {
			sh.depth++
		}
		if sh.snapInterval < 8*o.cfg.SnapEvery {
			sh.snapInterval *= 2
		}
	}
}

// fossilCollect computes GVT (the minimum next-event time across shards at
// this barrier — all mail is injected, so calendars carry every in-flight
// message) and reclaims history no rollback can reach: every rollback
// target is > GVT, so the latest snapshot strictly below GVT anchors each
// shard and everything older is garbage.
func (o *OptimisticShardSet) fossilCollect() {
	gvt := Infinity
	for i := range o.engines {
		if o.next[i] < gvt {
			gvt = o.next[i]
		}
	}
	o.stats.GVT = gvt
	for i := range o.shards {
		sh := &o.shards[i]
		keep := -1
		for k := len(sh.snaps) - 1; k >= 0; k-- {
			if sh.snaps[k].at < gvt {
				keep = k
				break
			}
		}
		if keep <= 0 {
			continue
		}
		horizon := sh.snaps[keep].at
		sh.snaps = append(sh.snaps[:0], sh.snaps[keep:]...)

		live := sh.inLog[:0]
		for _, m := range sh.inLog {
			if !m.annihilated && m.item.at > horizon {
				live = append(live, m)
			}
		}
		clearMsgTail(sh.inLog, len(live))
		sh.inLog = live

		sent := sh.sentLog[:0]
		for _, m := range sh.sentLog {
			if m.annihilated {
				// Already removed from liveSends at annihilation; the quad
				// may since have been re-sent, so deleting by key here
				// would clobber the live successor's index entry.
				continue
			}
			if m.item.postTime <= horizon {
				delete(sh.liveSends, msgKey{m.item.at, m.item.postTime, m.item.srcShard, m.item.seq})
				continue
			}
			sent = append(sent, m)
		}
		clearMsgTail(sh.sentLog, len(sent))
		sh.sentLog = sent
	}
}

// clearMsgTail nils the compacted-away tail of a message log so the
// reusable slice does not pin dead messages (and their closures).
func clearMsgTail(s []*optMsg, from int) {
	for i := from; i < len(s); i++ {
		s[i] = nil
	}
}

// sortOptMsgs orders a pending batch by the canonical mail order, the
// pointer-slice analogue of sortMail.
func sortOptMsgs(ms []*optMsg) {
	n := len(ms)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownOptMsgs(ms, i, n)
	}
	for i := n - 1; i > 0; i-- {
		ms[0], ms[i] = ms[i], ms[0]
		siftDownOptMsgs(ms, 0, i)
	}
}

func siftDownOptMsgs(ms []*optMsg, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && mailLess(&ms[c].item, &ms[c+1].item) {
			c++
		}
		if !mailLess(&ms[i].item, &ms[c].item) {
			return
		}
		ms[i], ms[c] = ms[c], ms[i]
		i = c
	}
}

// injectExternal schedules one cross-shard mail item under optimistic
// coordination, marking the calendar entry external (excluded from
// snapshots) and returning the anti-message handle.
func (e *Engine) injectExternal(it *mailItem) EventHandle {
	if it.at < e.now {
		panic(fmt.Sprintf("sim: optimistic mail at %v is before now %v", it.at, e.now))
	}
	ev := e.getEvent(it.at)
	ev.fn = it.fn
	ev.c = it.c
	ev.external = true
	e.queue.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// restoreSnapshot rewinds the engine to a snapshot taken by the optimistic
// coordinator: the current calendar is recycled (bumping generations, so
// stale handles go inert), the snapshot's local events are reissued, and
// the clock and counters rewind. Mail events are not part of snapshots;
// the coordinator re-injects them from its input log.
func (e *Engine) restoreSnapshot(s *optSnapshot) {
	for _, ev := range e.queue.evs {
		ev.index = -1
		e.putEvent(ev)
	}
	e.queue.evs = e.queue.evs[:0]
	for i := range s.events {
		sv := &s.events[i]
		var ev *event
		if n := len(e.free); n > 0 {
			ev = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
		} else {
			ev = &event{}
		}
		gen := ev.gen
		*ev = *sv
		ev.gen = gen // the slot's generation, not the snapshot's stale one
		ev.cancelled = false
		ev.external = false
		e.queue.evs = append(e.queue.evs, ev)
	}
	e.queue.reinit()
	e.now = s.at
	e.seq = s.seq
	e.mailSeq = s.mailSeq
	e.executed = s.executed
	e.selfMailAt = Infinity
	e.outMailAt = Infinity
}
