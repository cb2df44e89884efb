package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The tests in this file hold Engine.advance — a sleeper moving the clock
// itself when its wake-up would be the loop's next event — to the calendar
// round trip it replaces: same event log, same final clock, same
// EventsExecuted. viaCalendar is the reference.

// advLog is one engine's execution log. Shards run concurrently, so every
// engine appends to its own.
type advLog []string

func (l *advLog) add(e *Engine, format string, args ...any) {
	*l = append(*l, fmt.Sprintf("%.3f ", float64(e.now))+fmt.Sprintf(format, args...))
}

// advOutcome is what the two paths must agree on, per engine.
type advOutcome struct {
	Logs     []advLog
	Clocks   []Time
	Executed []uint64
}

// logCaller is a Caller that logs: what PostTagged and CallAt deliver.
type logCaller struct {
	log  *advLog
	eng  *Engine
	what string
}

func (c *logCaller) Call() { c.log.add(c.eng, "%s", c.what) }

// runAdvModel runs a seeded random model — processes that sleep, sleep
// until, set and cancel timers, wait on signals fired by timers, send each
// other mail and wait for the reply, and post tagged self-sends — on a
// serial engine (shards 0) or a ShardSet. It returns the outcome and the
// calendar sequence numbers consumed, which an inline advance does not
// draw from.
func runAdvModel(seed int64, shards int, viaCalendar bool) (advOutcome, uint64) {
	const (
		procs = 9
		steps = 60
		lat   = Time(2)
	)
	// Few distinct durations, zero included: ties with the calendar head
	// and with other sleepers are the common case, not the rare one.
	durs := []Time{0, 0.5, 1, 1, 2, 3, 7}

	var ss *ShardSet
	var engs []*Engine
	if shards == 0 {
		engs = []*Engine{NewEngine()}
	} else {
		ss = NewShardSet(shards, lat)
		engs = ss.engines
	}
	for _, e := range engs {
		e.viaCalendar = viaCalendar
	}
	logs := make([]advLog, len(engs))
	shardOf := func(proc int) int { return proc % len(engs) }
	// post delivers fn on dst's engine at the given time.
	post := func(src, dst int, at Time, fn func()) {
		if ss == nil {
			engs[0].ScheduleAt(at, fn)
			return
		}
		ss.Post(engs[src], engs[dst], at, fn)
	}

	for i := 0; i < procs; i++ {
		i := i
		home := shardOf(i)
		e, log := engs[home], &logs[home]
		rng := rand.New(rand.NewSource(seed*131 + int64(i)))
		dur := func() Time { return durs[rng.Intn(len(durs))] }
		var timers []EventHandle
		var tag uint64
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
			for s := 0; s < steps; s++ {
				switch rng.Intn(9) {
				case 0, 1, 2:
					p.Sleep(dur())
				case 3:
					p.SleepUntil(p.Now() + dur())
				case 4:
					id := len(timers)
					timers = append(timers, e.Schedule(dur(), func() { log.add(e, "p%d timer %d", i, id) }))
				case 5:
					if len(timers) > 0 {
						log.add(e, "p%d cancel %v", i, timers[rng.Intn(len(timers))].Cancel())
					}
				case 6:
					sig := NewSignal(e, "s")
					e.CallAfter(dur(), sig)
					sig.Wait(p)
				case 7:
					// Ping another process's engine; its handler answers
					// and the answer fires the signal this one waits on.
					peer := shardOf(rng.Intn(procs))
					back := dur()
					sig := NewSignal(e, "pong")
					post(home, peer, p.Now()+lat+dur(), func() {
						pe := engs[peer]
						logs[peer].add(pe, "ping from p%d", i)
						post(peer, home, pe.now+lat+back, sig.Fire)
					})
					sig.Wait(p)
				case 8:
					tag++
					c := &logCaller{log: log, eng: e, what: fmt.Sprintf("p%d tagged %d", i, tag)}
					at := p.Now() + dur()
					if ss == nil {
						e.CallAt(at, c)
					} else {
						ss.PostTagged(e, e, at, p.Now(), uint64(i)<<32|tag, c)
					}
				}
				log.add(e, "p%d step %d", i, s)
			}
		})
	}

	if ss == nil {
		engs[0].Run()
	} else {
		ss.Run()
	}
	out := advOutcome{Logs: logs}
	var seqs uint64
	for _, e := range engs {
		out.Clocks = append(out.Clocks, e.now)
		out.Executed = append(out.Executed, e.executed)
		seqs += e.seq
	}
	return out, seqs
}

func TestAdvanceMatchesCalendarPath(t *testing.T) {
	withGOMAXPROCS(t, func(t *testing.T) {
		for _, shards := range []int{0, 1, 2, 4} {
			for seed := int64(1); seed <= 16; seed++ {
				want, wantSeqs := runAdvModel(seed, shards, true)
				got, gotSeqs := runAdvModel(seed, shards, false)
				if !reflect.DeepEqual(got, want) {
					for i := range want.Logs {
						for j := range want.Logs[i] {
							if j >= len(got.Logs[i]) || got.Logs[i][j] != want.Logs[i][j] {
								t.Fatalf("shards %d seed %d engine %d entry %d: calendar path %q, inline %q",
									shards, seed, i, j, want.Logs[i][j], append(got.Logs[i], "<end>")[j])
							}
						}
					}
					t.Fatalf("shards %d seed %d: clocks %v executed %v, calendar path %v %v",
						shards, seed, got.Clocks, got.Executed, want.Clocks, want.Executed)
				}
				// The harness must not pass by never advancing inline.
				if gotSeqs >= wantSeqs {
					t.Fatalf("shards %d seed %d: inline run drew %d calendar entries, calendar path %d: advance never fired",
						shards, seed, gotSeqs, wantSeqs)
				}
			}
		}
	})
}

// advEdge runs one scenario on a fresh engine per path and returns its log,
// final clock and event count for both, failing if they differ.
func advEdge(t *testing.T, scenario func(e *Engine, log *advLog)) (advLog, *Engine) {
	t.Helper()
	run := func(viaCalendar bool) (advLog, *Engine) {
		e := NewEngine()
		e.viaCalendar = viaCalendar
		var log advLog
		scenario(e, &log)
		return log, e
	}
	want, we := run(true)
	got, ge := run(false)
	if !reflect.DeepEqual(got, want) || ge.now != we.now || ge.executed != we.executed {
		t.Fatalf("inline: log %q clock %v executed %d\ncalendar path: log %q clock %v executed %d",
			got, ge.now, ge.executed, want, we.now, we.executed)
	}
	return got, ge
}

func wantLog(t *testing.T, got advLog, want ...string) {
	t.Helper()
	if !reflect.DeepEqual([]string(got), want) {
		t.Fatalf("log %q, want %q", got, want)
	}
}

// A wake-up that ties with the calendar head loses to it: the head was
// scheduled first.
func TestAdvanceTieWithHeadGoesThroughCalendar(t *testing.T) {
	log, e := advEdge(t, func(e *Engine, log *advLog) {
		e.Spawn("a", func(p *Process) {
			e.After(1, func() { log.add(e, "timer") })
			p.Sleep(1)
			log.add(e, "a woke")
			p.Sleep(1) // nothing else left: inline
			log.add(e, "a done")
		})
		e.Run()
	})
	wantLog(t, log, "1.000 timer", "1.000 a woke", "2.000 a done")
	if e.seq != 3 { // spawn, timer, the tied wake-up; not the last sleep
		t.Fatalf("drew %d calendar entries, want 3", e.seq)
	}
}

// A cancelled head still sits in the heap. Behind it the sleeper takes the
// calendar path (the refusal is conservative); ahead of it, the inline one.
func TestAdvanceAroundCancelledHead(t *testing.T) {
	log, e := advEdge(t, func(e *Engine, log *advLog) {
		e.Spawn("a", func(p *Process) {
			e.Schedule(1, func() { log.add(e, "cancelled timer ran") }).Cancel()
			p.Sleep(0.5)
			log.add(e, "a before")
			p.Sleep(1)
			log.add(e, "a after")
		})
		e.Run()
	})
	wantLog(t, log, "0.500 a before", "1.500 a after")
	if e.executed != 3 || pendingEvents(e) != 0 {
		t.Fatalf("executed %d events with %d pending, want 3 and 0", e.executed, pendingEvents(e))
	}
}

// RunUntil executes events exactly at its deadline and none after; a sleep
// past it parks in the calendar for the next run to find.
func TestAdvanceAtRunUntilDeadline(t *testing.T) {
	log, e := advEdge(t, func(e *Engine, log *advLog) {
		e.Spawn("a", func(p *Process) {
			p.Sleep(5)
			log.add(e, "a at the deadline")
			p.Sleep(1)
			log.add(e, "a past it")
		})
		if end := e.RunUntil(5); end != 5 {
			log.add(e, "RunUntil returned %v", end)
		}
		log.add(e, "paused with %d pending", pendingEvents(e))
		e.Run()
	})
	wantLog(t, log, "5.000 a at the deadline", "5.000 paused with 1 pending", "6.000 a past it")
	if e.limit != -1 {
		t.Fatalf("limit %v outside a run loop, want -1", e.limit)
	}
}

// RunWindow's end is exclusive and the two mail caps narrow it: a wake-up at
// or past any of them waits in the calendar, and the clock stays at the last
// event executed.
func TestAdvanceAtRunWindowBounds(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		end, selfMail, outMai Time
	}{
		{"end", 5, Infinity, Infinity},
		{"selfMailAt", 9, 5, Infinity},
		{"outMailAt", 9, Infinity, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, e := advEdge(t, func(e *Engine, log *advLog) {
				e.Spawn("a", func(p *Process) {
					p.Sleep(4)
					log.add(e, "a inside")
					p.Sleep(1)
					log.add(e, "a at the bound")
				})
				e.selfMailAt, e.outMailAt = tc.selfMail, tc.outMai
				e.RunWindow(tc.end)
				log.add(e, "window over, next event at %v", e.NextEventTime())
				e.selfMailAt, e.outMailAt = Infinity, Infinity
				e.RunWindow(Infinity)
			})
			wantLog(t, log, "4.000 a inside", "4.000 window over, next event at 5", "5.000 a at the bound")
			if e.limit != -1 {
				t.Fatalf("limit %v outside a run loop, want -1", e.limit)
			}
		})
	}
}

// After Stop nothing more runs, a sleeper's continuation included.
func TestAdvanceRefusedAfterStop(t *testing.T) {
	var released bool
	log, e := advEdge(t, func(e *Engine, log *advLog) {
		e.Spawn("a", func(p *Process) {
			defer func() { released = true }()
			p.Sleep(1)
			log.add(e, "a stops the engine")
			e.Stop()
			p.Sleep(1)
			log.add(e, "a ran after Stop")
		})
		e.Run()
	})
	wantLog(t, log, "1.000 a stops the engine")
	if e.now != 1 || !released {
		t.Fatalf("clock %v released %v, want 1 true", e.now, released)
	}
}

// SleepUntil into the past panics as before.
func TestAdvanceSleepUntilPastStillPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Process) {
		p.Sleep(2)
		p.SleepUntil(1)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("SleepUntil(1) at time 2 did not panic")
		}
	}()
	e.Run()
}
