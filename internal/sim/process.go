package sim

import "fmt"

// Process is a simulated thread of control. A process is a coroutine of
// the engine: it has its own stack but never runs concurrently with the
// engine or another process — it executes until it blocks (Sleep, Wait,
// ...) and then switches straight back to whoever resumed it, on the same
// thread, without a trip through the Go scheduler (coroutine.go).
//
// A process has its own clock. Charge moves it ahead of the calendar;
// Sync, Sleep and the waits meet the calendar there first.
//
// All Process methods must be called from the process's own body function.
type Process struct {
	eng  *Engine
	name string
	// from is where the last charge ahead of the calendar started: the
	// issue time of the wake-up a process sleeping through it would have
	// scheduled, which Sync's wake-up takes over.
	from Time

	next func() (struct{}, bool) // engine -> process: run until it parks or returns
	park func(struct{}) bool     // process -> engine: I have blocked; false = unwind
	stop func()                  // engine -> process: unwind now (no-op once returned)

	finished  bool
	blockedOn string // diagnostics: what the process is waiting for
	doneSig   *Signal

	// Park state (Park). gen numbers the process's parks: registrations
	// carry the number of the park they are for. parked is set from the
	// park's yield until the first wake is scheduled, due marks a
	// registration that found its fire already done, and timer is the
	// deadline wake-up of the last park that had one (a handle to an event
	// that has run cancels nothing).
	gen    uint32
	parked bool
	due    bool
	timer  EventHandle
}

// Call resumes the process: a Process is its own wake-up Caller, so
// sleeps, park deadlines and signal fires schedule it without allocating a
// closure.
func (p *Process) Call() { p.run() }

// Spawn starts a new process executing body. The body begins running at the
// current virtual time, after the currently executing event/process yields.
// The name appears in deadlock diagnostics.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.doneSig = NewSignal(e, name+".done")
	e.procs = append(e.procs, p)
	p.start(body)
	e.CallAfter(0, p)
	return p
}

// run switches to the process and returns when it parks or its body
// returns; a panic in the body surfaces here, in the engine's goroutine.
// It is always invoked from an engine event callback, so the strict
// one-runner-at-a-time invariant holds.
func (p *Process) run() {
	if p.finished {
		panic(fmt.Sprintf("sim: resuming finished process %s", p.name))
	}
	e := p.eng
	e.running = p
	p.next()
	// Parked or returned: the engine's clock is the calendar's again.
	e.running, e.now = nil, e.cal
}

// yield parks the process and returns control to the engine. The process
// resumes when some event calls run() again — or, if the engine was torn
// down meanwhile, unwinds (see releaseProcesses).
func (p *Process) yield(why string) {
	p.blockedOn = why
	if !p.park(struct{}{}) {
		panic(processReleased{})
	}
	p.blockedOn = ""
}

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the process's clock: the calendar's time plus whatever the
// process has charged since it last met the calendar.
func (p *Process) Now() Time { return p.eng.now }

// Charge advances the process's clock by d without meeting the calendar:
// no event is scheduled, nothing else runs, and the events the process
// schedules meanwhile carry its clock as their issue time. It is Sleep for
// work whose interim nobody can observe. Before the process reads state
// that other processes or events change, it must meet the calendar (Sync,
// Sleep, or a wait, which syncs first). A d that does not move the clock,
// a RunUntil deadline the charge would cross, a stopped engine and the
// engine's always-synchronise reference make it a Sleep.
func (p *Process) Charge(d Time) {
	e := p.eng
	t := e.now + d
	if !(t > e.now) || e.alwaysSync || e.stopped || (!e.windowed && t > e.limit) {
		p.Sleep(d)
		return
	}
	p.from, e.now = e.now, t
}

// Sync meets the calendar at the process's clock: it returns once every
// event that would have run before the process woke from its last charge,
// had it slept through it, has run. Its wake-up is issued where that charge
// started. A process that has not charged since it last met the calendar
// does not yield.
func (p *Process) Sync() {
	e := p.eng
	if e.now == e.cal || e.stopped {
		return
	}
	if e.advance(e.now) {
		return
	}
	e.callAt(e.now, p.from, p)
	p.yield("sync")
}

// Sleep advances the process by d of virtual time. Other processes and
// events run in the interim. A non-positive d yields the processor for the
// current instant (other same-time events run) and resumes. When nothing
// else can run before the wake-up, the clock moves there without a trip
// through the calendar (Engine.advance).
func (p *Process) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	if p.eng.advance(p.eng.now + d) {
		return
	}
	p.eng.CallAfter(d, p)
	p.yield("sleep")
}

// Park blocks the process until the earliest of until and the first fire
// of a Signal or Counter it registered on (Signal.Notify,
// Counter.NotifyAt) since its last park, and yields once. A fire wakes it
// at the fire's instant, issued there, and cancels the deadline; the
// deadline wakes it at until, issued at until, with the process as its own
// Caller; a registration that found its fire already done, or an until in
// the past, makes it resume at once, at (now, now). Each registration
// carries the number of the park it is for, so a fire after the process
// has woken — a second one, or one after the deadline — does nothing.
//
// A registration observes state that events change, so the process meets
// the calendar (Sync) before it registers; Park itself never syncs. A park
// with no registration and an infinite until never returns: the run loop
// reports the deadlock.
func (p *Process) Park(until Time) { p.block(until, "park") }

func (p *Process) block(until Time, why string) {
	e := p.eng
	if p.due || until < e.now {
		until = e.now
	}
	p.due = false
	if until < Infinity {
		p.timer = e.callAt(until, until, p)
	}
	p.parked = true
	p.yield(why)
	p.parked = false
	p.gen++
}

// waiter is a process registered for one of its parks: gen is that park's
// number. A counter waiter also carries its threshold.
type waiter struct {
	p         *Process
	gen       uint32
	threshold int64
}

// live reports whether w's park is still ahead or under way.
func (w waiter) live() bool { return w.gen == w.p.gen }

// wake resumes w's process at the current instant if it is parked in the
// park w is for and nothing has woken it yet, cancelling its deadline.
func (w waiter) wake(e *Engine) {
	p := w.p
	if !w.live() || !p.parked {
		return
	}
	p.parked = false
	p.timer.Cancel()
	e.CallAfter(0, p)
}

// enrol appends w to ws after dropping the registrations of parks that are
// over, so a signal re-registered at every park of a long wait holds one.
func enrol(ws []waiter, w waiter) []waiter {
	keep := ws[:0]
	for _, x := range ws {
		if x.live() {
			keep = append(keep, x)
		}
	}
	clear(ws[len(keep):])
	return append(keep, w)
}

// Done returns a signal fired when the process body returns. Other
// processes may Wait on it to join this process.
func (p *Process) Done() *Signal { return p.doneSig }

// Signal is a one-shot broadcast event: processes block on Wait until some
// actor calls Fire, after which Wait returns immediately forever.
type Signal struct {
	eng     *Engine
	name    string
	waitTag string // precomputed yield diagnostic, built once per signal
	fired   bool
	waiters []waiter
}

// NewSignal creates an unfired signal.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, name: name}
}

// Init (re)initialises a signal in place to the unfired state, for callers
// that embed Signals in pooled structures instead of allocating with
// NewSignal. The waiter list's capacity is kept, so a pooled request's
// signal stops allocating once warm; registrations still on it are dropped.
func (s *Signal) Init(e *Engine, name string) {
	if s.name != name {
		s.waitTag = ""
	}
	s.eng = e
	s.name = name
	s.fired = false
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// tag returns the yield diagnostic for Wait, built on first use: most
// signals fire without ever blocking a process, and skipping the eager
// concatenation keeps signal setup allocation-free.
func (s *Signal) tag() string {
	if s.waitTag == "" {
		s.waitTag = "signal:" + s.name
	}
	return s.waitTag
}

// Waiting reports whether a process is parked on the signal, so that a
// fire would wake it.
func (s *Signal) Waiting() bool {
	for _, w := range s.waiters {
		if w.live() && w.p.parked {
			return true
		}
	}
	return false
}

// Call fires the signal: a Signal is its own completion Caller, so
// "schedule this signal to fire after the wire time" costs no closure.
func (s *Signal) Call() { s.Fire() }

// Fire triggers the signal, waking every process parked on it at the
// current virtual time. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		w.wake(s.eng)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Notify registers p for its next park (Process.Park): the signal's first
// fire ends it. A signal that has already fired makes the park resume at
// once.
func (s *Signal) Notify(p *Process) {
	if s.fired {
		p.due = true
		return
	}
	s.waiters = enrol(s.waiters, waiter{p: p, gen: p.gen})
}

// Wait blocks the calling process until the signal fires.
func (s *Signal) Wait(p *Process) {
	p.Sync()
	if s.fired {
		return
	}
	s.Notify(p)
	p.block(Infinity, s.tag())
}

// Counter is a monotonically increasing integer with the ability to wait
// until it reaches a threshold. It models completion flags updated with the
// SW26010 faaw (fetch-and-add word) instruction.
type Counter struct {
	eng     *Engine
	name    string
	waitTag string
	value   int64
	waiters []waiter
}

// Call increments the counter by one: a Counter is its own faaw-style
// Caller, so per-CPE completion-flag updates schedule without a closure.
func (c *Counter) Call() { c.Add(1) }

// NewCounter creates a counter at zero.
func NewCounter(e *Engine, name string) *Counter {
	return &Counter{eng: e, name: name, waitTag: "counter:" + name}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.value }

// Add increments the counter and wakes the processes whose threshold is
// reached. The rest are compacted in place, dropping registrations of parks
// that are over, so the steady-state faaw path (64 CPE flag updates per
// offload, one waiter) never allocates.
func (c *Counter) Add(delta int64) {
	c.value += delta
	keep := c.waiters[:0]
	for _, w := range c.waiters {
		if c.value >= w.threshold {
			w.wake(c.eng)
		} else if w.live() {
			keep = append(keep, w)
		}
	}
	clear(c.waiters[len(keep):])
	c.waiters = keep
}

// Reset sets the counter back to zero. Waiters are unaffected (they keep
// their absolute thresholds against the new value).
func (c *Counter) Reset() { c.value = 0 }

// NotifyAt registers p for its next park (Process.Park): the counter
// reaching threshold ends it. A counter already there makes the park resume
// at once.
func (c *Counter) NotifyAt(p *Process, threshold int64) {
	if c.value >= threshold {
		p.due = true
		return
	}
	c.waiters = enrol(c.waiters, waiter{p: p, gen: p.gen, threshold: threshold})
}

// WaitFor blocks the calling process until the counter value is at least
// threshold.
func (c *Counter) WaitFor(p *Process, threshold int64) {
	p.Sync()
	if c.value >= threshold {
		return
	}
	c.NotifyAt(p, threshold)
	p.block(Infinity, c.waitTag)
}
