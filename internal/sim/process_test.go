package sim

import (
	"testing"
)

func TestProcessSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake []Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(1)
		wake = append(wake, p.Now())
		p.Sleep(2.5)
		wake = append(wake, p.Now())
	})
	end := e.Run()
	if end != 3.5 {
		t.Fatalf("end = %v, want 3.5", end)
	}
	if len(wake) != 2 || wake[0] != 1 || wake[1] != 3.5 {
		t.Fatalf("wake = %v", wake)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var trace []string
	mk := func(name string, period Time) {
		e.Spawn(name, func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Sleep(period)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 1)
	mk("b", 1.5)
	e.Run()
	// times: a@1, b@1.5, a@2, then both at t=3 — b's event was scheduled
	// earlier (at 1.5) so it wins the tie — then b@4.5.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "go")
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Process) {
			sig.Wait(p)
			woke = append(woke, name)
			if p.Now() != 5 {
				t.Errorf("%s woke at %v, want 5", name, p.Now())
			}
		})
	}
	e.Spawn("firer", func(p *Process) {
		p.Sleep(5)
		sig.Fire()
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke = %v", woke)
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "done")
	sig.Fire()
	ran := false
	e.Spawn("late", func(p *Process) {
		sig.Wait(p)
		ran = true
		if p.Now() != 0 {
			t.Errorf("late waiter at %v, want 0", p.Now())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("late waiter did not run")
	}
	if !sig.fired {
		t.Fatal("signal not fired")
	}
}

func TestProcessDoneJoin(t *testing.T) {
	e := NewEngine()
	var order []string
	worker := e.Spawn("worker", func(p *Process) {
		p.Sleep(2)
		order = append(order, "worker")
	})
	e.Spawn("joiner", func(p *Process) {
		worker.Done().Wait(p)
		order = append(order, "joiner")
		if p.Now() != 2 {
			t.Errorf("join at %v, want 2", p.Now())
		}
	})
	e.Run()
	if len(order) != 2 || order[0] != "worker" || order[1] != "joiner" {
		t.Fatalf("order = %v", order)
	}
	if !worker.finished {
		t.Fatal("worker not finished")
	}
}

func TestCounterWaitFor(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, "flag")
	reached := Time(-1)
	e.Spawn("waiter", func(p *Process) {
		c.WaitFor(p, 3)
		reached = p.Now()
	})
	e.Spawn("adder", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			c.Add(1)
		}
	})
	e.Run()
	if reached != 3 {
		t.Fatalf("waiter woke at %v, want 3", reached)
	}
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestCounterWaitForAlreadyReached(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, "flag")
	c.Add(5)
	ran := false
	e.Spawn("w", func(p *Process) {
		c.WaitFor(p, 5)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("waiter blocked despite threshold reached")
	}
}

func TestCounterReset(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, "flag")
	c.Add(7)
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("value after reset = %d", c.Value())
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	sig := NewSignal(e, "never")
	e.Spawn("stuck", func(p *Process) { sig.Wait(p) })
	e.Run()
}

func TestActiveProcessesAccounting(t *testing.T) {
	e := NewEngine()
	e.Spawn("p1", func(p *Process) { p.Sleep(1) })
	e.Spawn("p2", func(p *Process) { p.Sleep(2) })
	if n := len(e.procs); n != 2 {
		t.Fatalf("active = %d, want 2", n)
	}
	e.Run()
	if n := len(e.procs); n != 0 {
		t.Fatalf("active after run = %d, want 0", n)
	}
}

// TestSignalNotifyAfterFired: a registration on a signal that has already
// fired makes the park resume at once, at the instant it parked, through
// one calendar event.
func TestSignalNotifyAfterFired(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	s.Fire()
	ran := false
	e.Spawn("p", func(p *Process) {
		p.Sleep(1)
		ev := e.EventsExecuted()
		s.Notify(p)
		p.Park(Infinity)
		ran = true
		if p.Now() != 1 || e.EventsExecuted()-ev != 1 {
			t.Errorf("resumed at %v after %d events, want 1 and 1", p.Now(), e.EventsExecuted()-ev)
		}
	})
	e.Run()
	if !ran {
		t.Fatal("a park on a fired signal did not resume")
	}
}

// TestCounterNotifyAtMultipleThresholds: processes parked on one counter at
// different thresholds each wake when theirs is reached, in order.
func TestCounterNotifyAtMultipleThresholds(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, "c")
	var hits []int64
	var at []Time
	for _, n := range []int64{5, 2} {
		n := n
		e.Spawn("waiter", func(p *Process) {
			c.NotifyAt(p, n)
			p.Park(Infinity)
			hits = append(hits, n)
			at = append(at, p.Now())
		})
	}
	e.Spawn("adder", func(p *Process) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
			c.Add(1)
		}
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 5 || at[0] != 2 || at[1] != 5 {
		t.Fatalf("hits = %v at %v, want [2 5] at [2 5]", hits, at)
	}
}

// TestParkDeadline: a park with no fire resumes at its deadline through one
// event, and a deadline already past resumes it at once.
func TestParkDeadline(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "never")
	e.Spawn("p", func(p *Process) {
		ev := e.EventsExecuted()
		sig.Notify(p)
		p.Park(2.5)
		if p.Now() != 2.5 || e.EventsExecuted()-ev != 1 {
			t.Errorf("woke at %v after %d events, want 2.5 and 1", p.Now(), e.EventsExecuted()-ev)
		}
		p.Park(1)
		if p.Now() != 2.5 {
			t.Errorf("a past deadline resumed at %v, want 2.5", p.Now())
		}
	})
	e.Run()
}

// TestParkFireCancelsDeadline: a fire before the deadline wakes the process
// at the fire's instant, and the deadline event never runs: the run counts
// the spawn, the fire, the wake-up and the final sleep, nothing else.
func TestParkFireCancelsDeadline(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "s")
	c := NewCounter(e, "c")
	e.Spawn("p", func(p *Process) {
		sig.Notify(p)
		c.NotifyAt(p, 1)
		p.Park(5)
		if p.Now() != 2 {
			t.Errorf("woke at %v, want the fire at 2", p.Now())
		}
		p.Sleep(10)
	})
	e.CallAt(2, sig)
	e.CallAt(2, c) // a second fire for the same park, at the same instant
	e.Run()
	if got := e.EventsExecuted(); got != 5 {
		t.Errorf("%d events, want 5 (spawn, two fires, one wake-up, sleep)", got)
	}
}

// TestLateFireDoesNothing: a fire after the deadline has woken the process
// finds its registration stale — it neither resumes the process, which is
// sleeping elsewhere, nor schedules any event — and a registration from an
// earlier park does not end a later one.
func TestLateFireDoesNothing(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "s")
	var woke []Time
	e.Spawn("p", func(p *Process) {
		sig.Notify(p)
		p.Park(1)
		woke = append(woke, p.Now())
		p.Sleep(2) // the fire at 2 lands here
		woke = append(woke, p.Now())
		p.Park(4) // no registration: only the deadline ends it
		woke = append(woke, p.Now())
	})
	var before uint64
	e.After(2, func() {
		before = e.EventsExecuted()
		sig.Fire()
	})
	e.Run()
	if len(woke) != 3 || woke[0] != 1 || woke[1] != 3 || woke[2] != 4 {
		t.Fatalf("woke at %v, want [1 3 4]", woke)
	}
	// After the fire's own event: the sleep's wake-up at 3 and the deadline
	// at 4.
	if got := e.EventsExecuted() - before; got != 2 {
		t.Errorf("%d events after the late fire, want 2", got)
	}
}
