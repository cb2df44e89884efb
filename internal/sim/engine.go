// Package sim implements a deterministic, process-model discrete-event
// simulation engine. It is the substrate on which the Sunway machine model,
// the simulated MPI library, and the Uintah schedulers execute: every
// component that "takes time" is a Process, and every process keeps its own
// virtual clock. A charge (Process.Charge) moves only the process's clock;
// the process meets the engine's calendar — lets every earlier event run —
// only where it observes state other actors change (Process.Sync, a Sleep,
// a park, a signal or counter wait). Events a process schedules are stamped with
// the process's clock as their issue time.
//
// The engine is strictly cooperative. At any instant exactly one process
// coroutine is running; all others are parked waiting for the engine to
// switch back to them. Events execute in (time, issue time, schedule
// order) order, so a simulation is reproducible run to run, and a process
// running ahead of the calendar issues its events in the order they would
// have had had it slept through every charge.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Time is virtual time in seconds.
type Time float64

// Infinity is a sentinel time later than any event.
const Infinity Time = Time(math.MaxFloat64)

// Microsecond is one microsecond of virtual time.
const Microsecond Time = 1e-6

// Caller is an allocation-free event target: scheduling a Caller instead of
// a func() closure lets a long-lived actor (a process, a signal, a message
// envelope) be its own callback, so the hot paths — process wake-ups,
// signal fires, message deliveries — schedule millions of events without
// allocating a fresh func value per event.
type Caller interface{ Call() }

// event is a single entry in the engine's calendar queue. Exactly one of
// fn and c is set. Events are arena-managed: the engine recycles them
// through a freelist, and gen invalidates stale EventHandles when a slot
// is reused (see EventHandle.Cancel).
type event struct {
	at Time
	// issue is the virtual instant the event was scheduled at: the issuing
	// process's clock, or the executing event's time. It breaks time ties
	// before seq does.
	issue Time
	seq   uint64 // tie-breaker: schedule order
	fn    func()
	c     Caller
	// index in the queue, maintained by the heap operations; -1 when
	// popped.
	index     int
	cancelled bool
	// gen counts reuses of this slot; an EventHandle carries the gen it
	// was issued under and goes inert once they diverge.
	gen uint32
	// ahead marks an event issued by a process whose clock was past the
	// calendar's, and by the process that issued it (nil: an event
	// callback). Only the tie census sets and reads them.
	ahead bool
	by    *Process
}

// eventQueue is a typed, slice-backed 4-ary min-heap on (at, issue, seq). It
// replaces container/heap, whose any-typed Push/Pop box every event and
// make an indirect interface call per sift comparison — this queue is
// the hottest structure of the simulation (every DMA, message and poll
// goes through it). The 4-ary layout halves the tree depth, trading
// slightly more comparisons per level for far fewer cache misses.
// Cancellation stays lazy: cancelled events keep their slot and are
// skipped on pop, preserving the FIFO tie-break (seq) semantics exactly.
type eventQueue struct {
	evs []*event
}

// less orders a before b by time, then by issue time, then by schedule
// order. Without processes running ahead of the calendar the issue key is
// redundant — seq grows with the clock — so this is the (time, seq) order
// of a single-clock engine.
func (q *eventQueue) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.issue != b.issue {
		return a.issue < b.issue
	}
	return a.seq < b.seq
}

// Len returns the number of queued events (including cancelled ones
// still awaiting their lazy removal).
func (q *eventQueue) Len() int { return len(q.evs) }

// push inserts ev, maintaining the heap order.
func (q *eventQueue) push(ev *event) {
	ev.index = len(q.evs)
	q.evs = append(q.evs, ev)
	q.siftUp(ev.index)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *event {
	ev := q.evs[0]
	n := len(q.evs) - 1
	last := q.evs[n]
	q.evs[n] = nil
	q.evs = q.evs[:n]
	if n > 0 {
		q.evs[0] = last
		last.index = 0
		q.siftDown(0)
	}
	ev.index = -1
	return ev
}

func (q *eventQueue) siftUp(i int) {
	ev := q.evs[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := q.evs[parent]
		if !q.less(ev, p) {
			break
		}
		q.evs[i] = p
		p.index = i
		i = parent
	}
	q.evs[i] = ev
	ev.index = i
}

func (q *eventQueue) siftDown(i int) {
	ev := q.evs[i]
	n := len(q.evs)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.less(q.evs[c], q.evs[min]) {
				min = c
			}
		}
		if !q.less(q.evs[min], ev) {
			break
		}
		q.evs[i] = q.evs[min]
		q.evs[i].index = i
		i = min
	}
	q.evs[i] = ev
	ev.index = i
}

// reinit restores the heap property over the whole slice — used after a
// bulk append, where one O(n) pass beats m individual O(log n) sifts.
func (q *eventQueue) reinit() {
	n := len(q.evs)
	if n == 0 {
		return
	}
	for i, ev := range q.evs {
		ev.index = i
	}
	for i := (n - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
}

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	// now is the clock Now reads and events are scheduled against: the
	// executing event's time or, while a process body runs, that process's
	// own clock, which lazy charges move past cal.
	now Time
	// cal is the calendar's clock: the time of the event the run loop is
	// executing (or last executed). now > cal only while a process that has
	// charged since it last met the calendar is running.
	cal     Time
	running *Process // the process whose body is executing, for the census
	seq     uint64
	queue   eventQueue
	// procs is the roster of live processes (spawned, not yet finished), in
	// spawn order, for the deadlock report and the release on teardown.
	procs   []*Process
	stopped bool
	// interrupted records the reason passed to Interrupt, if any.
	interrupted string
	// executed counts events run, for measuring event-loop pressure.
	executed uint64
	// limit is how far the run loop now executing may take the clock:
	// RunUntil's deadline (inclusive) or, with windowed set, RunWindow's end
	// (exclusive). Outside a run loop it is -1, which no wake-up time
	// satisfies. It exists for advance.
	limit    Time
	windowed bool
	// viaCalendar makes advance refuse, so tests can compare the inline
	// path against the calendar round trip it replaces.
	viaCalendar bool
	// alwaysSync makes every Process.Charge a synchronising Sleep: the
	// reference the lazy process clocks are tested against.
	alwaysSync bool
	// census, when set (by the tie-census tests), sees every executed
	// event, stamped with ahead and by.
	census func(*event)

	// free is the event arena: fired and cancelled events return here and
	// are reissued by the schedule calls, so a steady-state simulation
	// allocates no calendar entries at all.
	free []*event

	// shardSet is non-nil when this engine is one shard of a ShardSet. An
	// empty calendar then means "waiting for cross-shard mail", not
	// deadlock — the coordinator owns the global deadlock check — and the
	// engine executes only inside the windows the coordinator grants.
	shardSet *ShardSet
	shardID  int
	// outbox[d] stages cross-shard events addressed to shard d posted
	// during the current window; the coordinator drains every box at the
	// barrier. mailSeq orders the items of one source.
	outbox  [][]mailItem
	mailSeq uint64
	// selfMailAt caps the running window at the earliest outbox item
	// addressed to this same engine (PostTagged routes even self-sends
	// through the barrier for deterministic ordering): the clock must not
	// pass an undelivered item's time. Infinity when none is pending.
	selfMailAt Time
	// outMailAt caps the running window at the earliest instant a response
	// to this window's own outbound mail could arrive: a post waking shard
	// d at time a can provoke a reply at a + lat[d][src], which the window
	// ends — computed before the post existed — know nothing about. In the
	// busy regime windows are at most one lookahead wide and the cap
	// (>= two lookaheads out) never binds; it matters when a wide window
	// wakes an idle shard. Infinity when nothing was posted.
	outMailAt Time
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{limit: -1, selfMailAt: Infinity, outMailAt: Infinity}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// getEvent issues a calendar entry at the given time from the arena,
// stamped with its issue time and the next sequence number.
func (e *Engine) getEvent(at, issue Time) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.cancelled = false
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.issue = issue
	ev.seq = e.seq
	e.seq++
	if e.census != nil {
		ev.ahead, ev.by = issue > e.cal, e.running
	}
	return ev
}

// putEvent returns a popped event to the arena. Bumping gen turns any
// outstanding handle to the old incarnation inert before the slot is
// reissued.
func (e *Engine) putEvent(ev *event) {
	ev.fn = nil
	ev.c = nil
	ev.by = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Schedule registers fn to run at now+delay. Negative delays are clamped to
// zero (the event runs "now", after currently pending same-time events).
// The returned handle may be used to cancel the event before it fires.
// Hot paths that never cancel should prefer After or CallAfter, which skip
// the handle allocation.
func (e *Engine) Schedule(delay Time, fn func()) EventHandle {
	if delay < 0 {
		delay = 0
	}
	ev := e.getEvent(e.now+delay, e.now)
	ev.fn = fn
	e.queue.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// ScheduleAt registers fn to run at the absolute virtual time at, which
// must not lie in the past. It is the barrier-time injection primitive of
// the sharded engine: cross-shard mail carries absolute delivery times,
// and the receiving engine's clock may trail the sender's.
func (e *Engine) ScheduleAt(at Time, fn func()) EventHandle {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) is before now %v", at, e.now))
	}
	ev := e.getEvent(at, e.now)
	ev.fn = fn
	e.queue.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// ScheduleCall registers c to run at now+delay, like Schedule without the
// closure: the Caller itself is the callback.
func (e *Engine) ScheduleCall(delay Time, c Caller) EventHandle {
	if delay < 0 {
		delay = 0
	}
	ev := e.getEvent(e.now+delay, e.now)
	ev.c = c
	e.queue.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// After registers fn to run at now+delay without issuing a cancel handle —
// the allocation-free form of Schedule for fire-and-forget events.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	ev := e.getEvent(e.now+delay, e.now)
	ev.fn = fn
	e.queue.push(ev)
}

// CallAfter registers c to run at now+delay: no handle, no closure. This is
// the engine's cheapest scheduling primitive: Process starts and sleeps
// and mpisim's message and collective fires run on it.
func (e *Engine) CallAfter(delay Time, c Caller) {
	if delay < 0 {
		delay = 0
	}
	ev := e.getEvent(e.now+delay, e.now)
	ev.c = c
	e.queue.push(ev)
}

// CallAt registers c to run at the absolute time at (which must not lie in
// the past), the handle-free, closure-free form of ScheduleAt.
func (e *Engine) CallAt(at Time, c Caller) {
	if at < e.now {
		panic(fmt.Sprintf("sim: CallAt(%v) is before now %v", at, e.now))
	}
	e.callAt(at, e.now, c)
}

// callAt pushes c at time at with the given issue time.
func (e *Engine) callAt(at, issue Time, c Caller) EventHandle {
	ev := e.getEvent(at, issue)
	ev.c = c
	e.queue.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// EventHandle allows cancelling a scheduled callback.
type EventHandle struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op: a fired event's slot returns to the
// engine's arena under a new generation, so a stale handle can never
// cancel the slot's next occupant — and the zero-value handle cancels
// nothing. Reports whether the event was live. Handles are small values;
// issuing one never allocates.
func (h EventHandle) Cancel() bool {
	if h.ev == nil || h.gen != h.ev.gen || h.ev.cancelled || h.ev.index == -1 {
		return false
	}
	h.ev.cancelled = true
	return true
}

// fire executes a just-popped live event: the clocks move to its time, it
// is counted, and its callback runs after the slot is recycled — the
// callback routinely schedules new events, and handing the slot back first
// lets that schedule reuse it immediately.
func (e *Engine) fire(ev *event) {
	if ev.at < e.cal {
		panic(fmt.Sprintf("sim: event at %v is before now %v", ev.at, e.cal))
	}
	e.now, e.cal = ev.at, ev.at
	e.executed++
	if e.census != nil {
		e.census(ev)
	}
	fn, c := ev.fn, ev.c
	e.putEvent(ev)
	if c != nil {
		c.Call()
	} else {
		fn()
	}
}

// Run drives the simulation until no events remain or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// RunUntil drives the simulation until the calendar is empty, Stop is
// called, or the next event would fire strictly after the deadline. Events
// exactly at the deadline are executed.
func (e *Engine) RunUntil(deadline Time) Time {
	e.limit, e.windowed = deadline, false
	// A panic leaving the loop — a process body's, re-raised by its resume,
	// or the deadlock report below — ends the run as surely as Stop does.
	defer func() {
		e.limit = -1
		if r := recover(); r != nil {
			e.releaseProcesses()
			panic(r)
		}
	}()
	for !e.stopped && e.queue.Len() > 0 {
		next := e.queue.evs[0]
		if next.at > deadline {
			e.now, e.cal = deadline, deadline
			return e.now
		}
		e.queue.pop()
		if next.cancelled {
			e.putEvent(next)
			continue
		}
		e.fire(next)
	}
	if len(e.procs) > 0 && !e.stopped && e.shardSet == nil {
		// Every runnable process is blocked and no event can wake any of
		// them: the model has deadlocked. Surface it loudly with a roster.
		// (A shard engine legitimately idles here waiting for cross-shard
		// mail; its ShardSet owns the global deadlock check.)
		panic("sim: deadlock: " + e.blockedRoster())
	}
	if e.stopped {
		e.releaseProcesses()
	}
	return e.now
}

// RunWindow executes every event strictly before end, leaving the clock at
// the last executed event (not at end): the sharded coordinator needs the
// true event times to compute the next lookahead window, and mail is
// injected with absolute times at the barrier.
func (e *Engine) RunWindow(end Time) {
	e.limit, e.windowed = end, true
	defer func() { e.limit = -1 }()
	for !e.stopped && e.queue.Len() > 0 {
		if e.selfMailAt < end {
			end = e.selfMailAt
		}
		if e.outMailAt < end {
			end = e.outMailAt
		}
		next := e.queue.evs[0]
		if next.at >= end {
			return
		}
		e.queue.pop()
		if next.cancelled {
			e.putEvent(next)
			continue
		}
		e.fire(next)
	}
}

// advance moves the calendar straight to w, the wake-up time of the running
// process's sleep or synchronisation, and reports whether it did. It does
// so exactly when the wake-up event the process would otherwise schedule is
// what the run loop would execute next: it must be strictly earlier than
// the calendar head (a tie may go either way on the issue key, and a
// cancelled head counts — the refusal is only ever conservative), and it
// must be inside the loop's bound, which for a window includes the two mail
// caps as RunWindow applies them. The loop would then pop it, set the
// clock, count it and switch back to the process with nothing run in
// between; advance does the first three and the process simply carries on.
// Whenever it refuses, the calendar path runs as it always has.
func (e *Engine) advance(w Time) bool {
	if e.stopped || e.viaCalendar || w < e.now {
		return false
	}
	if len(e.queue.evs) > 0 && !(w < e.queue.evs[0].at) {
		return false
	}
	if e.windowed {
		if !(w < e.limit && w < e.selfMailAt && w < e.outMailAt) {
			return false
		}
	} else if !(w <= e.limit) {
		return false
	}
	e.now, e.cal = w, w
	e.executed++
	return true
}

// injectMail appends a batch of barrier mail, already in canonical merge
// order, to the calendar in one pass: each item is issued at its post time,
// as the same event scheduled directly on a single engine would be, and
// takes the next sequence number in batch order, so same-time ties at the
// receiver resolve identically for every shard count. Large batches
// (relative to the resident calendar) are appended raw and re-heapified in
// O(n); small ones go through ordinary pushes.
func (e *Engine) injectMail(items []mailItem) {
	bulk := len(items) > e.queue.Len()
	for i := range items {
		it := &items[i]
		if it.at < e.now {
			panic(fmt.Sprintf("sim: mail at %v is before now %v", it.at, e.now))
		}
		ev := e.getEvent(it.at, it.postTime)
		ev.fn = it.fn
		ev.c = it.c
		if bulk {
			ev.index = len(e.queue.evs)
			e.queue.evs = append(e.queue.evs, ev)
		} else {
			e.queue.push(ev)
		}
	}
	if bulk {
		e.queue.reinit()
	}
}

// NextEventTime returns the time of the earliest live event, or Infinity
// with an empty (or fully cancelled) calendar. Cancelled events at the top
// of the heap are removed on the way.
func (e *Engine) NextEventTime() Time {
	for e.queue.Len() > 0 {
		if e.queue.evs[0].cancelled {
			e.putEvent(e.queue.pop())
			continue
		}
		return e.queue.evs[0].at
	}
	return Infinity
}

// EventsExecuted returns the number of events the engine has run — the
// denominator of event-loop efficiency measurements (for example the
// coalesced-polling gate).
func (e *Engine) EventsExecuted() uint64 { return e.executed }

// Stop halts the run loop after the current event completes; the run then
// unwinds every parked process (the engine is single-use after Stop).
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Interrupt stops the run loop like Stop, additionally recording a reason —
// used by the fault plane to model a hard failure (e.g. a core-group crash)
// that tears the whole simulation down mid-run. Parked processes are
// unwound, exactly as with Stop. Only the first reason is kept.
func (e *Engine) Interrupt(reason string) {
	if e.interrupted == "" {
		e.interrupted = reason
	}
	e.stopped = true
}

func (e *Engine) blockedRoster() string {
	var names []string
	for _, p := range e.procs {
		names = append(names, fmt.Sprintf("%s(blocked at %q)", p.name, p.blockedOn))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "no live processes"
	}
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
