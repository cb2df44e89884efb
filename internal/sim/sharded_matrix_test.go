package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestShardSetLatencyMatrixValidation exercises the constructor's guard
// rails: non-square matrices and non-positive pair lookaheads are refused
// (a zero or negative pair admits no window and would livelock the
// coordinator), while Infinity marks pairs that never interact.
func TestShardSetLatencyMatrixValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}

	mustPanic("zero pair", func() {
		NewShardSetLatencies([][]Time{
			{0, 0},
			{Microsecond, 0},
		})
	})
	mustPanic("negative pair", func() {
		NewShardSetLatencies([][]Time{
			{0, -Microsecond},
			{Microsecond, 0},
		})
	})
	mustPanic("ragged matrix", func() {
		NewShardSetLatencies([][]Time{
			{0, Microsecond},
			{Microsecond},
		})
	})
	mustPanic("empty matrix", func() { NewShardSetLatencies(nil) })
	mustPanic("zero uniform", func() { NewShardSet(2, 0) })

	// Asymmetric finite entries plus an Infinity pair: the diagonal is
	// ignored and the pair entries are kept as given.
	ss := NewShardSetLatencies([][]Time{
		{-1, 2 * Microsecond, Infinity},
		{Microsecond, -1, 3 * Microsecond},
		{Infinity, 4 * Microsecond, -1},
	})
	for _, c := range []struct {
		i, j int
		want Time
	}{{0, 1, 2 * Microsecond}, {1, 0, Microsecond}, {0, 2, Infinity}} {
		if got := ss.lat[c.i][c.j]; got != c.want {
			t.Fatalf("lat[%d][%d] = %v, want %v", c.i, c.j, got, c.want)
		}
	}
}

// TestShardSetAsymmetricMatrixMatchesSerial runs three shards under an
// asymmetric latency matrix — each direction of each pair has its own
// minimum wire time — and asserts virtual timestamps identical to the same
// traffic on one serial engine. Shard 2 is reachable only at a much larger
// latency, so its windows run far ahead of the chatty 0<->1 pair.
func TestShardSetAsymmetricMatrixMatchesSerial(t *testing.T) {
	lat := [][]Time{
		{-1, 2 * Microsecond, 8 * Microsecond},
		{3 * Microsecond, -1, 8 * Microsecond},
		{8 * Microsecond, 8 * Microsecond, -1},
	}
	const hops = 40

	run := func(engOf func(i int) *Engine, send func(src, dst int, at Time, fn func()), drive func() Time) (map[string]Time, Time) {
		log := make(map[string]Time)
		var hop func(from, to, n int)
		hop = func(from, to, n int) {
			if n >= hops {
				return
			}
			wire := lat[from][to]
			e := engOf(from)
			at := e.Now() + wire
			send(from, to, at, func() {
				log[fmt.Sprintf("hop %d->%d #%d", from, to, n)] = engOf(to).Now()
				// Bounce between 0 and 1, detouring via 2 every 8th hop
				// so the slow pair sees traffic too.
				next := 1 - to
				if n%8 == 7 {
					next = 2
				}
				if to == 2 {
					next = 0
				}
				hop(to, next, n+1)
			})
		}
		engOf(0).Schedule(0, func() { hop(0, 1, 0) })
		engOf(1).Schedule(Microsecond/4, func() { hop(1, 0, 0) })
		return log, drive()
	}

	serial := NewEngine()
	wantLog, wantEnd := run(
		func(int) *Engine { return serial },
		func(src, dst int, at Time, fn func()) { serial.ScheduleAt(at, fn) },
		serial.Run)

	ss := NewShardSetLatencies(lat)
	gotLog, gotEnd := run(
		ss.Engine,
		func(src, dst int, at Time, fn func()) { ss.Post(ss.Engine(src), ss.Engine(dst), at, fn) },
		ss.Run)

	if gotEnd != wantEnd {
		t.Fatalf("end time: sharded %v, serial %v", gotEnd, wantEnd)
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("log length: sharded %d, serial %d", len(gotLog), len(wantLog))
	}
	for k, want := range wantLog {
		if got, ok := gotLog[k]; !ok || got != want {
			t.Fatalf("%s: sharded time %v, serial %v", k, got, want)
		}
	}
}

// TestShardSetIdleShardMidWindow drives one shard through a long event
// chain while the other goes fully idle partway through, then is revived
// by late mail. An idle shard must stop constraining windows (its next
// event time is Infinity) without deadlocking the coordinator, and the
// revival mail must still respect the pair lookahead.
func TestShardSetIdleShardMidWindow(t *testing.T) {
	const look = Microsecond
	ss := NewShardSet(2, look)
	a, b := ss.Engine(0), ss.Engine(1)

	// Shard 1: a short burst, then nothing.
	var bRan atomic.Int64
	for i := 1; i <= 5; i++ {
		b.After(Time(i)*look/2, func() { bRan.Add(1) })
	}

	// Shard 0: a long self-rescheduling chain that outlives shard 1's
	// burst by far, then revives shard 1 with cross-shard mail.
	var aEnd Time
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 400 {
			a.After(look/4, tick)
			return
		}
		aEnd = a.Now()
		ss.Post(a, b, a.Now()+2*look, func() { bRan.Add(100) })
	}
	a.After(0, tick)

	end := ss.Run()
	if got := bRan.Load(); got != 105 {
		t.Fatalf("shard-1 events: got %d, want 105 (5 burst + revived)", got)
	}
	if want := aEnd + 2*look; end != want {
		t.Fatalf("end time %v, want %v (revival delivery)", end, want)
	}
}

// TestShardSetMailStormMatchesSerial is the adversarial batching case:
// every other shard floods shard 0 with mail inside a handful of windows —
// far more items than shard 0's resident calendar, forcing the bulk
// injectMail path (append + heapify) — with deliberate timestamp ties
// across source shards. The observed execution order must be the canonical
// (time, postTime, srcShard, seq) merge order, bit-identical to the same
// storm run serially.
func TestShardSetMailStormMatchesSerial(t *testing.T) {
	const (
		shards  = 4
		perSrc  = 800
		look    = Microsecond
		baseGap = Microsecond / 64
	)

	type rec struct {
		src, n int
		at     Time
	}

	run := func(engOf func(i int) *Engine, send func(src int, at Time, fn func()), drive func()) []rec {
		var got []rec
		for s := 1; s < shards; s++ {
			src := s
			e := engOf(src)
			e.After(0, func() {
				now := e.Now()
				for i := 0; i < perSrc; i++ {
					n := i
					// Half the storm lands on shared instants (ties
					// across all three sources), half on per-source
					// offsets.
					at := now + 2*look + Time(i/2)*baseGap
					send(src, at, func() {
						got = append(got, rec{src: src, n: n, at: engOf(0).Now()})
					})
				}
			})
		}
		drive()
		return got
	}

	serial := NewEngine()
	want := run(
		func(int) *Engine { return serial },
		func(src int, at Time, fn func()) { serial.ScheduleAt(at, fn) },
		func() { serial.Run() })

	ss := NewShardSet(shards, look)
	got := run(
		ss.Engine,
		func(src int, at Time, fn func()) { ss.Post(ss.Engine(src), ss.Engine(0), at, fn) },
		func() { ss.Run() })

	if len(got) != len(want) || len(got) != (shards-1)*perSrc {
		t.Fatalf("storm delivered %d events, serial %d, want %d", len(got), len(want), (shards-1)*perSrc)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("storm order diverges at %d: sharded %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestShardSetMailBelowLookaheadPanics asserts the delivery-time guard: a
// cross-shard post inside the pair lookahead would violate the window
// invariant and must panic rather than silently reorder.
func TestShardSetMailBelowLookaheadPanics(t *testing.T) {
	ss := NewShardSet(2, Microsecond)
	a, b := ss.Engine(0), ss.Engine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mail inside the pair lookahead")
		}
	}()
	ss.Post(a, b, a.Now()+Microsecond/2, func() {})
}
