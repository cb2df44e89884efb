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
	pid  int
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
}

// Call resumes the process: a Process is its own wake-up Caller, so
// sleeps and signal fires schedule it without allocating a closure.
func (p *Process) Call() { p.run() }

// Spawn starts a new process executing body. The body begins running at the
// current virtual time, after the currently executing event/process yields.
// The name appears in deadlock diagnostics.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name, pid: e.nextPID}
	p.doneSig = NewSignal(e, name+".done")
	e.nextPID++
	e.procs = append(e.procs, p)
	e.active++
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

// Done returns a signal fired when the process body returns. Other
// processes may Wait on it to join this process.
func (p *Process) Done() *Signal { return p.doneSig }

// Signal is a one-shot broadcast event: processes block on Wait until some
// actor calls Fire, after which Wait returns immediately forever.
type Signal struct {
	eng       *Engine
	name      string
	waitTag   string // precomputed yield diagnostic, built once per signal
	fired     bool
	waiters   []*Process
	callbacks []func()
}

// NewSignal creates an unfired signal.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, name: name}
}

// Init (re)initialises a signal in place to the unfired state, for callers
// that embed Signals in pooled structures instead of allocating with
// NewSignal. The caller must only reuse a signal after it has fired and its
// waiters have drained; the drained waiter/callback capacity is kept, so a
// pooled request's signal stops allocating once warm.
func (s *Signal) Init(e *Engine, name string) {
	if s.name != name {
		s.waitTag = ""
	}
	s.eng = e
	s.name = name
	s.fired = false
	s.waiters = s.waiters[:0]
	s.callbacks = s.callbacks[:0]
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

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Call fires the signal: a Signal is its own completion Caller, so
// "schedule this signal to fire after the wire time" costs no closure.
func (s *Signal) Call() { s.Fire() }

// Fire triggers the signal, waking all waiters at the current virtual time.
// Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		s.eng.CallAfter(0, w)
	}
	for _, fn := range s.callbacks {
		s.eng.After(0, fn)
	}
	// Drop the references but keep the capacity: once fired, Wait and
	// OnFire never append again (they act immediately), and a pooled
	// owner's Init reuses the drained storage.
	for i := range s.waiters {
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
	for i := range s.callbacks {
		s.callbacks[i] = nil
	}
	s.callbacks = s.callbacks[:0]
}

// Wait blocks the calling process until the signal fires.
func (s *Signal) Wait(p *Process) {
	p.Sync()
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.yield(s.tag())
}

// OnFire schedules fn to run when the signal fires (immediately, at the
// current time, if it already has). Each registered callback runs once.
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		s.eng.After(0, fn)
		return
	}
	s.callbacks = append(s.callbacks, fn)
}

// Counter is a monotonically increasing integer with the ability to wait
// until it reaches a threshold. It models completion flags updated with the
// SW26010 faaw (fetch-and-add word) instruction.
type Counter struct {
	eng      *Engine
	name     string
	waitTag  string
	value    int64
	waiters  []counterWaiter
	reachCBs []counterCallback
}

// Call increments the counter by one: a Counter is its own faaw-style
// Caller, so per-CPE completion-flag updates schedule without a closure.
func (c *Counter) Call() { c.Add(1) }

type counterWaiter struct {
	threshold int64
	proc      *Process
}

type counterCallback struct {
	threshold int64
	fn        func()
}

// NewCounter creates a counter at zero.
func NewCounter(e *Engine, name string) *Counter {
	return &Counter{eng: e, name: name, waitTag: "counter:" + name}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.value }

// Add increments the counter and wakes waiters whose threshold is reached.
// Unreached waiters are compacted in place, so the steady-state faaw path
// (64 CPE flag updates per offload, one waiter) never allocates.
func (c *Counter) Add(delta int64) {
	c.value += delta
	keep := c.waiters[:0]
	for _, w := range c.waiters {
		if c.value >= w.threshold {
			c.eng.CallAfter(0, w.proc)
		} else {
			keep = append(keep, w)
		}
	}
	for i := len(keep); i < len(c.waiters); i++ {
		c.waiters[i] = counterWaiter{}
	}
	c.waiters = keep
	keepCB := c.reachCBs[:0]
	for _, cb := range c.reachCBs {
		if c.value >= cb.threshold {
			c.eng.After(0, cb.fn)
		} else {
			keepCB = append(keepCB, cb)
		}
	}
	for i := len(keepCB); i < len(c.reachCBs); i++ {
		c.reachCBs[i] = counterCallback{}
	}
	c.reachCBs = keepCB
}

// Reset sets the counter back to zero. Waiters are unaffected (they keep
// their absolute thresholds against the new value).
func (c *Counter) Reset() { c.value = 0 }

// WaitFor blocks the calling process until the counter value is at least
// threshold.
func (c *Counter) WaitFor(p *Process, threshold int64) {
	p.Sync()
	if c.value >= threshold {
		return
	}
	c.waiters = append(c.waiters, counterWaiter{threshold: threshold, proc: p})
	p.yield(c.waitTag)
}

// OnReach schedules fn once the counter value reaches threshold
// (immediately if it already has). Each registered callback runs once.
func (c *Counter) OnReach(threshold int64, fn func()) {
	if c.value >= threshold {
		c.eng.After(0, fn)
		return
	}
	c.reachCBs = append(c.reachCBs, counterCallback{threshold: threshold, fn: fn})
}
