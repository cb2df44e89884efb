package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// withGOMAXPROCS runs fn as a subtest at each thread count. A ShardSet
// runs every window on the caller's goroutine whatever the host has, so a
// result that moves with GOMAXPROCS is a regression: dispatch that again
// depends on the thread count, or state shared off the caller's goroutine.
func withGOMAXPROCS(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestShardSetAcrossGOMAXPROCS reruns the shard-coordinator tests at 1, 2
// and 8 threads. They use 2 to 4 shards, so 8 leaves a thread to spare for
// every shard and 1 leaves none; each must pass the same at all three.
func TestShardSetAcrossGOMAXPROCS(t *testing.T) {
	tests := map[string]func(*testing.T){
		"PingPong":         TestShardSetPingPongMatchesSerial,
		"MailTieOrder":     TestShardSetMailTieOrder,
		"Interrupt":        TestShardSetInterruptPropagates,
		"LoneRunner":       TestShardSetLoneRunner,
		"WakesIdleShard":   TestShardSetWakesIdleShard,
		"AsymmetricMatrix": TestShardSetAsymmetricMatrixMatchesSerial,
		"IdleMidWindow":    TestShardSetIdleShardMidWindow,
		"MailStorm":        TestShardSetMailStormMatchesSerial,
		"BelowLookahead":   TestShardSetMailBelowLookaheadPanics,
		"ProcessPanic":     TestProcessPanicSurfacesFromRun,
		"StopReleases":     TestStopReleasesParkedProcesses,
	}
	withGOMAXPROCS(t, func(t *testing.T) {
		for name, fn := range tests {
			t.Run(name, fn)
		}
	})
}

func TestSpawnFromInsideProcess(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("parent", func(p *Process) {
		p.Sleep(1)
		child := e.Spawn("child", func(c *Process) {
			log = append(log, fmt.Sprintf("child start %v", c.Now()))
			c.Sleep(2)
			log = append(log, fmt.Sprintf("child end %v", c.Now()))
		})
		log = append(log, "parent spawned")
		child.Done().Wait(p)
		log = append(log, fmt.Sprintf("parent joined %v", p.Now()))
	})
	e.Run()
	want := []string{"parent spawned", "child start 1", "child end 3", "parent joined 3"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestProcessFinishesWhileOthersSleep(t *testing.T) {
	e := NewEngine()
	short := e.Spawn("short", func(p *Process) { p.Sleep(1) })
	var sawFinished bool
	e.Spawn("long", func(p *Process) {
		p.Sleep(2)
		sawFinished = short.finished && len(e.procs) == 1
		p.Sleep(2)
	})
	if end := e.Run(); end != 4 {
		t.Fatalf("end = %v, want 4", end)
	}
	if !sawFinished {
		t.Fatal("short should have finished (and left the roster) while long slept")
	}
}

func TestRepeatedRunOnOneEngine(t *testing.T) {
	e := NewEngine()
	var ends []Time
	for seg := 0; seg < 3; seg++ {
		e.Spawn("seg", func(p *Process) { p.Sleep(1.5) })
		ends = append(ends, e.Run())
	}
	if want := []Time{1.5, 3, 4.5}; !reflect.DeepEqual(ends, want) {
		t.Fatalf("segment ends = %v, want %v", ends, want)
	}
	if n := len(e.procs); n != 0 {
		t.Fatalf("roster holds %d processes after three drained runs", n)
	}
}

// TestRosterDropsFinishedProcesses: a simulation stepped in many short Run
// calls keeps no finished process on its engine's roster.
func TestRosterDropsFinishedProcesses(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "never")
	for run := 0; run < 1000; run++ {
		for i := 0; i < 8; i++ {
			e.Spawn(fmt.Sprintf("rank%d", i), func(p *Process) {
				p.Charge(Time(i+1) * Microsecond)
				p.Sleep(Microsecond)
			})
		}
		e.Run()
	}
	if n := len(e.procs); n != 0 {
		t.Fatalf("roster holds %d processes after 1000 drained runs of 8, want 0", n)
	}
	// The roster still names the live processes of a deadlock.
	e.Spawn("stuck", func(p *Process) { sig.Wait(p) })
	defer func() {
		if r := recover(); r != `sim: deadlock: stuck(blocked at "signal:never")` {
			t.Fatalf("panic = %v", r)
		}
	}()
	e.Run()
}

// TestSameInstantWakeOrder: processes woken at one instant resume in the
// order their wake-ups were scheduled, whatever woke them.
func TestSameInstantWakeOrder(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "go")
	ctr := NewCounter(e, "flag")
	var order []string
	e.Spawn("sleeper", func(p *Process) { p.Sleep(5); order = append(order, "sleeper") })
	e.Spawn("waiter", func(p *Process) { sig.Wait(p); order = append(order, "waiter") })
	e.Spawn("counter", func(p *Process) { waitFor(p, ctr, 1); order = append(order, "counter") })
	e.Schedule(5, func() { ctr.Add(1); sig.Fire() })
	e.Run()
	// sleeper's wake-up was put on the calendar first (at t=0); the t=5
	// event then schedules counter's before waiter's.
	if want := []string{"sleeper", "counter", "waiter"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
}

func TestDeadlockRosterText(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "never")
	flag := NewCounter(e, "inbox")
	e.Spawn("b-stuck", func(p *Process) { sig.Wait(p) })
	e.Spawn("a-stuck", func(p *Process) { waitFor(p, flag, 1) })
	e.Spawn("done", func(p *Process) { p.Sleep(1) })
	defer func() {
		want := `sim: deadlock: a-stuck(blocked at "park"), b-stuck(blocked at "signal:never")`
		if r := recover(); r != want {
			t.Fatalf("panic = %v\nwant    %v", r, want)
		}
	}()
	e.Run()
}

// waitGoroutines polls until the goroutine count is back to base: an
// unwound coroutine's goroutine exits just after its stop() returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: parked processes leaked", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestStopReleasesParkedProcesses: Engine.Stop (and a stop propagated
// through a ShardSet) unwinds every parked process — running its deferred
// calls — and a process that was never resumed at all.
func TestStopReleasesParkedProcesses(t *testing.T) {
	const n = 64
	spawn := func(engOf func(i int) *Engine) *int {
		unwound := new(int)
		for i := 0; i < n; i++ {
			e := engOf(i)
			sig := NewSignal(e, "never")
			e.Spawn(fmt.Sprintf("parked%d", i), func(p *Process) {
				defer func() { *unwound++ }()
				sig.Wait(p)
			})
		}
		return unwound
	}
	base := runtime.NumGoroutine()

	e := NewEngine()
	unwound := spawn(func(int) *Engine { return e })
	e.Schedule(1, func() {
		e.Spawn("never-started", func(p *Process) { t.Error("body of a never-resumed process ran") })
		e.Stop()
	})
	e.Run()
	if *unwound != n {
		t.Fatalf("serial: %d of %d parked bodies unwound", *unwound, n)
	}
	waitGoroutines(t, base)

	ss := NewShardSet(4, Microsecond)
	unwound = spawn(func(i int) *Engine { return ss.Engine(i % 4) })
	ss.Engine(2).Schedule(1, func() { ss.Engine(2).Interrupt("cg crashed") })
	ss.Run()
	if *unwound != n {
		t.Fatalf("sharded: %d of %d parked bodies unwound", *unwound, n)
	}
	waitGoroutines(t, base)
}

// TestProcessPanicSurfacesFromRun: a panic in a process body is raised out
// of Run on the caller's goroutine — where a caller can recover it — on the
// serial engine and on a ShardSet, and the surviving parked processes are
// released.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	mustPanic := func(name string, run func() Time) {
		t.Helper()
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("%s: recovered %v, want the body's panic", name, r)
			}
		}()
		run()
		t.Fatalf("%s: Run returned", name)
	}
	base := runtime.NumGoroutine()

	e := NewEngine()
	never := NewSignal(e, "never")
	e.Spawn("bystander", func(p *Process) { never.Wait(p) })
	e.Spawn("bad", func(p *Process) { p.Sleep(1); panic("boom") })
	mustPanic("serial", e.Run)
	waitGoroutines(t, base)

	ss := NewShardSet(4, Microsecond)
	for i := 0; i < 4; i++ {
		e := ss.Engine(i)
		never := NewSignal(e, "never")
		e.Spawn("bystander", func(p *Process) { never.Wait(p) })
		// Every shard has work at t=1, so no lone-runner shortcut applies.
		e.Spawn("busy", func(p *Process) { p.Sleep(1); p.Sleep(1) })
	}
	ss.Engine(3).Spawn("bad", func(p *Process) { p.Sleep(1); panic("boom") })
	mustPanic("sharded", ss.Run)
	waitGoroutines(t, base)
}
