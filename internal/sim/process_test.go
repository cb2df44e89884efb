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

func TestSignalOnFireAfterFired(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	s.Fire()
	ran := false
	s.OnFire(func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("OnFire after Fire did not run")
	}
}

func TestCounterOnReachMultipleThresholds(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, "c")
	var hits []int64
	c.OnReach(2, func() { hits = append(hits, 2) })
	c.OnReach(5, func() { hits = append(hits, 5) })
	e.Spawn("adder", func(p *Process) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
			c.Add(1)
		}
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 5 {
		t.Fatalf("hits = %v", hits)
	}
}
