package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestShardSetPingPongMatchesSerial models two ranks exchanging timestamped
// messages with a wire latency of 2µs (≥ the 1µs lookahead) and asserts the
// sharded run produces the identical execution log and end time as the same
// model on one engine.
func TestShardSetPingPongMatchesSerial(t *testing.T) {
	const hops = 50
	const wire = 2 * Microsecond

	type post func(srcRank, dstRank int, at Time, fn func())

	// Concurrent shard windows interleave their wall-clock side effects, so
	// the comparison keys each hop by identity and checks its virtual
	// timestamp — the quantity the engine promises to reproduce exactly.
	run := func(engOf func(rank int) *Engine, send post, drive func() Time) (log map[string]Time, end Time) {
		log = make(map[string]Time)
		var mu sync.Mutex
		var hop func(from, to, n int)
		hop = func(from, to, n int) {
			if n >= hops {
				return
			}
			e := engOf(from)
			at := e.Now() + wire
			send(from, to, at, func() {
				mu.Lock()
				log[fmt.Sprintf("hop %d->%d #%d", from, to, n)] = engOf(to).Now()
				mu.Unlock()
				hop(to, from, n+1)
			})
		}
		engOf(0).Schedule(0, func() { hop(0, 1, 0) })
		// A second, phase-shifted stream on rank 1 creates same-window traffic
		// in both directions.
		engOf(1).Schedule(Microsecond/2, func() { hop(1, 0, 0) })
		return log, drive()
	}

	serial := NewEngine()
	wantLog, wantEnd := run(
		func(int) *Engine { return serial },
		func(src, dst int, at Time, fn func()) { serial.ScheduleAt(at, fn) },
		serial.Run)

	ss := NewShardSet(2, Microsecond)
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

// TestShardSetMailTieOrder posts cross-shard mail from every shard to shard 0
// at one shared delivery instant and asserts execution follows the canonical
// (at, postTime, srcShard, seq) order, not goroutine scheduling order.
func TestShardSetMailTieOrder(t *testing.T) {
	ss := NewShardSet(4, Microsecond)
	var got []int
	const at = 10 * Microsecond
	for s := 3; s >= 0; s-- {
		src := ss.Engine(s)
		for k := 0; k < 3; k++ {
			id := s*10 + k
			ss.Post(src, ss.Engine(0), at, func() { got = append(got, id) })
		}
	}
	ss.Run()
	want := []int{0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestShardSetInterruptPropagates interrupts one shard mid-run and asserts
// every engine stops with the same reason at the next barrier.
func TestShardSetInterruptPropagates(t *testing.T) {
	ss := NewShardSet(2, Microsecond)
	e0, e1 := ss.Engine(0), ss.Engine(1)
	for i := 1; i <= 100; i++ {
		at := Time(i) * 10 * Microsecond
		e0.ScheduleAt(at, func() {})
		e1.ScheduleAt(at, func() {})
	}
	e0.ScheduleAt(50*Microsecond, func() {
		e0.Interrupt("cg0 crashed")
		ss.RequestStop()
	})
	ss.Run()
	if got := ss.Interrupted(); got != "cg0 crashed" {
		t.Fatalf("Interrupted() = %q, want %q", got, "cg0 crashed")
	}
	for i := 0; i < 2; i++ {
		if !ss.Engine(i).Stopped() {
			t.Fatalf("shard %d not stopped after interrupt", i)
		}
		if ss.Engine(i).interrupted != "cg0 crashed" {
			t.Fatalf("shard %d reason = %q", i, ss.Engine(i).interrupted)
		}
	}
}

// TestShardSetLoneRunner checks that a shard with no peers holding events
// runs to completion (windows extend to Infinity rather than livelocking).
func TestShardSetLoneRunner(t *testing.T) {
	ss := NewShardSet(3, Microsecond)
	n := 0
	var last Time
	var tick func()
	tick = func() {
		n++
		last = ss.Engine(1).Now()
		if n < 1000 {
			ss.Engine(1).Schedule(Microsecond/4, tick)
		}
	}
	ss.Engine(1).Schedule(0, tick)
	end := ss.Run()
	if n != 1000 {
		t.Fatalf("ran %d ticks, want 1000", n)
	}
	if end != last {
		t.Fatalf("end = %v, want last tick time %v", end, last)
	}
}

// TestShardSetWakesIdleShard: a shard whose window is otherwise unbounded
// (every peer idle) must still stop at the earliest instant a reply to its
// own outbound mail could arrive. Shard 0 wakes idle shard 1 mid-run while
// holding a long local event chain; shard 1's response would land in shard
// 0's past without the outMailAt window cap.
func TestShardSetWakesIdleShard(t *testing.T) {
	const ns Time = 1e-9
	const lat = 5 * ns
	const chain = 50

	type side struct{ hash uint64 }
	fold := func(s *side, at Time, tag uint64) {
		s.hash = s.hash*1099511628211 ^ math.Float64bits(float64(at)) ^ tag
	}

	// model wires the scenario onto two engines (possibly the same one):
	// a dense local chain on side 0, one wake-up post to side 1, and side
	// 1's reply back into the middle of side 0's chain.
	model := func(e0, e1 *Engine, post func(src, dst *Engine, at Time, fn func())) (*side, *side) {
		s0, s1 := &side{}, &side{}
		for k := 1; k <= chain; k++ {
			at := Time(k) * ns
			e0.ScheduleAt(at, func() { fold(s0, at, 1) })
		}
		e0.ScheduleAt(ns+Time(1e-12), func() {
			wake := e0.Now() + lat
			post(e0, e1, wake, func() {
				fold(s1, e1.Now(), 2)
				reply := e1.Now() + lat
				post(e1, e0, reply, func() { fold(s0, e0.Now(), 3) })
			})
		})
		return s0, s1
	}

	eng := NewEngine()
	w0, w1 := model(eng, eng, func(src, dst *Engine, at Time, fn func()) {
		src.ScheduleAt(at, fn)
	})
	wantEnd := eng.Run()

	ss := NewShardSet(2, lat)
	g0, g1 := model(ss.Engine(0), ss.Engine(1), func(src, dst *Engine, at Time, fn func()) {
		ss.Post(src, dst, at, fn)
	})
	end := ss.Run()

	if end != wantEnd {
		t.Errorf("final time %v, want %v", end, wantEnd)
	}
	if g0.hash != w0.hash || g1.hash != w1.hash {
		t.Errorf("hashes (%x,%x), want (%x,%x)", g0.hash, g1.hash, w0.hash, w1.hash)
	}
}

// TestShardMailRoundZeroAlloc locks the batched cross-shard mail path at
// zero steady-state allocations: one source shard posts a window's worth
// of envelopes, the barrier merge (Flush) sorts and bulk-injects them, and
// the destination drains. Outboxes, merge buffers and event slots are all
// recycled once warm.
func TestShardMailRoundZeroAlloc(t *testing.T) {
	const batch = 1024
	ss := NewShardSet(2, Microsecond)
	src, dst := ss.Engine(0), ss.Engine(1)
	sink := NewCounter(dst, "mail-sink")
	rounds := 0
	round := func() {
		rounds++
		at := dst.Now() + 2*Microsecond
		for i := 0; i < batch; i++ {
			// Spread over 64 instants: ties and distinct times both on
			// the sort path.
			ss.PostCall(src, dst, at+Time(i%64)*Microsecond/256, sink)
		}
		ss.Flush()
		dst.Run()
	}
	round() // warm the arenas and merge buffers
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("mail round allocates %v per run, want 0", allocs)
	}
	if want := int64(rounds * batch); sink.Value() != want {
		t.Errorf("delivered %d envelopes, want %d", sink.Value(), want)
	}
}
