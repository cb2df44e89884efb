package sim

// Hooks for lazy_test.go, which builds whole simulations through core and
// experiments and so lives in package sim_test.

// AlwaysSync makes every Charge on e a synchronising Sleep: the reference
// the lazy process clocks are held to.
func AlwaysSync(e *Engine) { e.alwaysSync = true }

// CountTies starts e's tie census and returns a reader of its count.
func CountTies(e *Engine) func() uint64 {
	c := &tieCensus{at: -1}
	e.census = c.pop
	return func() uint64 { return c.ties }
}

// tieCensus counts calendar pops that join a run of live events of equal
// (time, issue time) holding a process resumption, some other event, an
// event issued ahead of the calendar, and more than one issuer. Inside such
// a run the order is schedule order, which for the ahead event is the host
// order of a process that did not stop at its charges, not necessarily the
// order the synchronising reference (alwaysSync) produces — and the resumed
// process observes whatever ran before it: a message arrival, a flag, a
// signal. Runs of resumptions alone only reorder processes that observe
// each other through events, never directly; a run of one issuer keeps
// program order either way. Tests enable it; zero certifies that no
// observation depended on a same-instant order the lazy clocks could flip.
type tieCensus struct {
	at, issue                   Time
	by                          *Process
	resume, other, ahead, mixed bool
	ties                        uint64
}

func (t *tieCensus) pop(ev *event) {
	_, resume := ev.c.(*Process)
	if ev.at != t.at || ev.issue != t.issue {
		t.at, t.issue, t.by = ev.at, ev.issue, ev.by
		t.resume, t.other, t.ahead, t.mixed = resume, !resume, ev.ahead, false
		return
	}
	t.resume = t.resume || resume
	t.other = t.other || !resume
	t.ahead = t.ahead || ev.ahead
	t.mixed = t.mixed || ev.by != t.by
	if t.resume && t.other && t.ahead && t.mixed {
		t.ties++
	}
}
