package mpisim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sunuintah/internal/faults"
	"sunuintah/internal/obs"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/trace"
)

func newComm(size int) (*sim.Engine, *Comm) {
	eng := sim.NewEngine()
	return eng, NewComm(eng, perf.DefaultParams(), size)
}

// sendOnce makes a send of bytes from r to dst on stream ch and starts it
// once with payload, labelled with the stream number: a persistent request
// started once is a one-shot send.
func sendOnce(p *sim.Process, r *Rank, dst, ch int, payload []float64, bytes int64) *Request {
	req := new(Request)
	r.SendInit(req, dst, ch, bytes)
	r.Start(p, req, ch, payload)
	return req
}

// recvOnce makes the receive of stream ch from src into r and starts it
// once.
func recvOnce(p *sim.Process, r *Rank, src, ch int) *Request {
	req := new(Request)
	r.RecvInit(req, src, ch)
	r.Start(p, req, ch, nil)
	return req
}

// TestSecondRecvInitOnStreamPanics: a stream has one receive, bound to its
// channel by RecvInit, so a second RecvInit on the stream panics, while
// another stream from the same source, or the same stream number from
// another source, takes its own.
func TestSecondRecvInitOnStreamPanics(t *testing.T) {
	_, c := newComm(3)
	r := c.Rank(1)
	var a, b, d Request
	r.RecvInit(&a, 0, 3)
	r.RecvInit(&b, 0, 4)
	r.RecvInit(&d, 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("a second RecvInit on stream 0->1 number 3 did not panic")
		}
	}()
	var e Request
	r.RecvInit(&e, 0, 3)
}

// TestMisusePanics: a negative size, a stream number or rank out of range,
// an engine list of the wrong length and a restart of a receive still
// waiting for its message each panic.
func TestMisusePanics(t *testing.T) {
	eng, c := newComm(2)
	if got := c.Rank(1).RankID(); got != 1 {
		t.Fatalf("RankID = %d, want 1", got)
	}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"negative size", func() { c.Rank(0).SendInit(new(Request), 1, 0, -1) }},
		{"stream number out of range", func() { c.Rank(0).RecvInit(new(Request), 1, 1<<21) }},
		{"rank out of range", func() { c.Rank(2) }},
		{"engines for the wrong size", func() { c.Shard(nil, []*sim.Engine{eng}) }},
		{"restart of a waiting receive", func() {
			var req Request
			c.Rank(1).RecvInit(&req, 0, 0)
			eng.Spawn("rank1", func(p *sim.Process) {
				c.Rank(1).Start(p, &req, 0, nil)
				c.Rank(1).Start(p, &req, 0, nil)
			})
			eng.Run()
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestObsProbesFollowSends: with the flight recorder attached, a send's
// message and bytes count as in flight from its post to its arrival, and
// under a plan that drops every transmission the sender's fault and
// recovery counters and the trace's markers count the five drops and five
// resends before the final attempt, which always delivers.
func TestObsProbesFollowSends(t *testing.T) {
	const bytes = 16 << 20
	eng, c := newComm(2)
	smp := obs.NewSampler(2)
	c.SetObs(smp)
	rec := trace.New()
	c.SetFaults(faults.NewInjector(&faults.Plan{Seed: 1, Drop: 1}), rec)
	eng.Spawn("rank0", func(p *sim.Process) {
		await(p, c.Rank(0), sendOnce(p, c.Rank(0), 1, 3, nil, bytes))
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		await(p, c.Rank(1), recvOnce(p, c.Rank(1), 0, 3))
	})
	eng.Run()
	r0 := smp.Report(eng.Now() + 1e-3).Ranks[0]
	if most := slices.Max(r0.InflightBytes); most != bytes || slices.Max(r0.InflightMsgs) != 1 {
		t.Errorf("at most %v bytes and %v messages in flight, want %d and 1", most, slices.Max(r0.InflightMsgs), bytes)
	}
	if r0.InflightMsgs[len(r0.InflightMsgs)-1] != 0 {
		t.Error("a delivered message still counts as in flight")
	}
	faulted, recovered := r0.Faults[len(r0.Faults)-1], r0.Recoveries[len(r0.Recoveries)-1]
	if faulted != 5 || recovered != 5 || c.Rank(0).Resends != 5 {
		t.Errorf("%v faults, %v recoveries and %d resends, want 5 each", faulted, recovered, c.Rank(0).Resends)
	}
	if n := len(rec.Events()); n != 10 {
		t.Errorf("%d fault-plane markers, want 10", n)
	}
	if got := rec.Events()[0].Name; got != "msg-drop dst=1 tag=3 try=1" {
		t.Errorf("first marker %q", got)
	}
}

func TestSendRecvDeliversPayload(t *testing.T) {
	eng, c := newComm(2)
	payload := []float64{1, 2, 3}
	var got []float64
	eng.Spawn("rank0", func(p *sim.Process) {
		sendOnce(p, c.Rank(0), 1, 7, payload, 24)
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		req := recvOnce(p, c.Rank(1), 0, 7)
		await(p, c.Rank(1), req)
		got = req.Payload()
	})
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("payload = %v", got)
	}
}

func TestRecvBeforeSendMatches(t *testing.T) {
	eng, c := newComm(2)
	var doneAt sim.Time
	eng.Spawn("rank1", func(p *sim.Process) {
		req := recvOnce(p, c.Rank(1), 0, 1)
		await(p, c.Rank(1), req)
		doneAt = p.Now()
	})
	eng.Spawn("rank0", func(p *sim.Process) {
		p.Sleep(5e-6)
		sendOnce(p, c.Rank(0), 1, 1, nil, 1000)
	})
	eng.Run()
	params := perf.DefaultParams()
	// Send is posted at 5us + post cost; arrival adds wire time (ranks 0
	// and 1 share a node, so the on-chip path applies).
	want := sim.Time(5e-6+params.MPIPostCost) + sim.Time(params.MessageTimeBetween(0, 1, 1000))
	if doneAt < want {
		t.Fatalf("recv done at %v, want >= %v", doneAt, want)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	eng, c := newComm(2)
	var got float64
	eng.Spawn("rank0", func(p *sim.Process) {
		sendOnce(p, c.Rank(0), 1, 9, []float64{42}, 8)
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		p.Sleep(1e-3) // message arrives long before the receive posts
		req := recvOnce(p, c.Rank(1), 0, 9)
		if !c.Rank(1).Test(p, req) {
			t.Error("late receive of arrived message should complete on first test")
		}
		got = req.Payload()[0]
	})
	eng.Run()
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

// TestStreamAndSourceMatching: a receive takes the messages of its own
// stream, named by source and number; Start's tag plays no part.
func TestStreamAndSourceMatching(t *testing.T) {
	eng, c := newComm(3)
	var fromCh1, fromCh2, fromRank2 float64
	eng.Spawn("rank0", func(p *sim.Process) {
		rk := c.Rank(0)
		var a, b Request
		rk.SendInit(&a, 1, 2, 8)
		rk.SendInit(&b, 1, 1, 8)
		rk.Start(p, &a, 1, []float64{20})
		rk.Start(p, &b, 2, []float64{10})
	})
	eng.Spawn("rank2", func(p *sim.Process) {
		sendOnce(p, c.Rank(2), 1, 1, []float64{30}, 8)
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		r1 := recvOnce(p, c.Rank(1), 0, 1)
		r2 := recvOnce(p, c.Rank(1), 0, 2)
		r3 := recvOnce(p, c.Rank(1), 2, 1)
		await(p, c.Rank(1), r1)
		await(p, c.Rank(1), r2)
		await(p, c.Rank(1), r3)
		fromCh1, fromCh2, fromRank2 = r1.Payload()[0], r2.Payload()[0], r3.Payload()[0]
	})
	eng.Run()
	if fromCh1 != 10 || fromCh2 != 20 || fromRank2 != 30 {
		t.Fatalf("got %v %v %v", fromCh1, fromCh2, fromRank2)
	}
}

// TestStreamKeepsSendOrder: two messages sent back to back on one stream
// wait in its channel, and its receive, restarted once complete, takes
// them in send order — on the pairing path and in the reference mode,
// where each is delivered by an event.
func TestStreamKeepsSendOrder(t *testing.T) {
	for _, reference := range []bool{false, true} {
		eng := sim.NewEngine()
		eng.SetReference(reference)
		c := NewComm(eng, perf.DefaultParams(), 2)
		var got []float64
		eng.Spawn("rank0", func(p *sim.Process) {
			rk := c.Rank(0)
			var req Request
			rk.SendInit(&req, 1, 5, 8)
			rk.Start(p, &req, 5, []float64{1})
			await(p, rk, &req)
			rk.Start(p, &req, 5, []float64{2})
		})
		eng.Spawn("rank1", func(p *sim.Process) {
			rk := c.Rank(1)
			p.Sleep(1e-3) // both messages arrive first
			if _, msgs := c.waiting(1); msgs != 2 {
				t.Errorf("reference=%v: %d messages wait in the channel, want 2", reference, msgs)
			}
			var req Request
			rk.RecvInit(&req, 0, 5)
			for i := 0; i < 2; i++ {
				rk.Start(p, &req, 5, nil)
				await(p, rk, &req)
				got = append(got, req.Payload()[0])
			}
		})
		eng.Run()
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("reference=%v: order = %v", reference, got)
		}
	}
}

func TestTestReflectsWireTime(t *testing.T) {
	eng, c := newComm(2)
	params := perf.DefaultParams()
	bytes := int64(16 << 20) // 16 MB: 1 ms on the wire
	eng.Spawn("rank0", func(p *sim.Process) {
		sendOnce(p, c.Rank(0), 1, 1, nil, bytes)
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		req := recvOnce(p, c.Rank(1), 0, 1)
		if c.Rank(1).Test(p, req) {
			t.Error("16 MB message cannot complete instantly")
		}
		p.Sleep(sim.Time(params.MessageTime(bytes)) + 1e-6)
		if !c.Rank(1).Test(p, req) {
			t.Error("message should have arrived after wire time")
		}
	})
	eng.Run()
}

func TestTestChargesTime(t *testing.T) {
	eng, c := newComm(2)
	params := perf.DefaultParams()
	eng.Spawn("rank1", func(p *sim.Process) {
		req := recvOnce(p, c.Rank(1), 0, 1)
		start := p.Now()
		for i := 0; i < 100; i++ {
			c.Rank(1).Test(p, req)
		}
		elapsed := float64(p.Now() - start)
		want := 100 * params.MPITestCost
		if math.Abs(elapsed-want) > 1e-12 {
			t.Errorf("100 tests took %v, want %v", elapsed, want)
		}
	})
	eng.Spawn("rank0", func(p *sim.Process) {
		p.Sleep(1)
		sendOnce(p, c.Rank(0), 1, 1, nil, 8)
	})
	eng.Run()
	if c.Rank(1).TestCalls != 100 {
		t.Errorf("TestCalls = %d", c.Rank(1).TestCalls)
	}
}

func TestSendRequestCompletesAfterWire(t *testing.T) {
	eng, c := newComm(2)
	eng.Spawn("rank0", func(p *sim.Process) {
		req := sendOnce(p, c.Rank(0), 1, 1, nil, 16<<20)
		if c.Rank(0).Test(p, req) {
			t.Error("send of 16 MB should not complete instantly")
		}
		await(p, c.Rank(0), req)
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		await(p, c.Rank(1), recvOnce(p, c.Rank(1), 0, 1))
	})
	eng.Run()
}

func TestAllreduceSum(t *testing.T) {
	eng, c := newComm(4)
	results := make([]float64, 4)
	for r := 0; r < 4; r++ {
		r := r
		eng.Spawn("rank", func(p *sim.Process) {
			p.Sleep(sim.Time(r) * 1e-6) // stagger arrivals
			results[r] = c.Rank(r).Allreduce(p, float64(r+1), OpSum)
		})
	}
	eng.Run()
	for r, v := range results {
		if v != 10 {
			t.Fatalf("rank %d result = %v, want 10", r, v)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	eng, c := newComm(3)
	maxs := make([]float64, 3)
	mins := make([]float64, 3)
	vals := []float64{3, -7, 5}
	for r := 0; r < 3; r++ {
		r := r
		eng.Spawn("rank", func(p *sim.Process) {
			maxs[r] = c.Rank(r).Allreduce(p, vals[r], OpMax)
			mins[r] = c.Rank(r).Allreduce(p, vals[r], OpMin)
		})
	}
	eng.Run()
	for r := 0; r < 3; r++ {
		if maxs[r] != 5 || mins[r] != -7 {
			t.Fatalf("rank %d: max %v min %v", r, maxs[r], mins[r])
		}
	}
}

func TestAllreduceSingleRank(t *testing.T) {
	eng, c := newComm(1)
	var got float64
	eng.Spawn("rank0", func(p *sim.Process) {
		got = c.Rank(0).Allreduce(p, 3.5, OpSum)
	})
	eng.Run()
	if got != 3.5 {
		t.Fatalf("got %v", got)
	}
}

// TestAllreduceReleasesEntries: a collective's entry is dropped once every
// rank has read its result, so a long run keeps none alive — and releasing
// changes no result and no clock: every rank sees the sum and leaves each
// collective at the tree latency after the last arrival.
func TestAllreduceReleasesEntries(t *testing.T) {
	const ranks, n = 8, 1000
	eng, c := newComm(ranks)
	params := perf.DefaultParams()
	delay := sim.Time(2*3*params.LinkLatency + params.ReduceBaseCost) // ceil(log2 8) = 3
	for r := 0; r < ranks; r++ {
		r := r
		eng.Spawn("rank", func(p *sim.Process) {
			var want sim.Time
			for i := 0; i < n; i++ {
				p.Sleep(sim.Time(r) * 1e-7) // the last rank arrives last
				got := c.Rank(r).Allreduce(p, float64(i+r), OpSum)
				if got != float64(ranks*i+ranks*(ranks-1)/2) {
					t.Errorf("rank %d allreduce %d = %v", r, i, got)
				}
				want = want + sim.Time(ranks-1)*1e-7 + sim.Time(params.ReduceBaseCost) + delay
				if p.Now() != want {
					t.Errorf("rank %d leaves allreduce %d at %v, want %v", r, i, p.Now(), want)
				}
			}
		})
	}
	eng.Run()
	if len(c.collectives) != 0 {
		t.Fatalf("%d collective entries still live after %d allreduces", len(c.collectives), n)
	}
}

// TestDecidedReceiveTestIsLazy: a receive whose message is on the wire from
// this engine is decided — paired at its post, it knows the arrival — so
// its test is answered without meeting the calendar: no event runs and the
// clock moves by exactly the test cost, whether the test ends after the
// arrival or the receive claims a message that arrived before it was
// posted.
func TestDecidedReceiveTestIsLazy(t *testing.T) {
	eng, c := newComm(2)
	params := perf.DefaultParams()
	cost := sim.Time(params.MPITestCost)
	wire := sim.Time(params.MessageTimeBetween(0, 1, 8))
	eng.Spawn("rank0", func(p *sim.Process) {
		sendOnce(p, c.Rank(0), 1, 1, []float64{7}, 8)
		sendOnce(p, c.Rank(0), 1, 2, []float64{8}, 8)
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		r := c.Rank(1)
		// Both ranks post at the same instant, so this charge brings rank 1
		// to the arrival of stream 1.
		pending := recvOnce(p, r, 0, 1)
		p.Charge(wire)
		ev, t0 := eng.EventsExecuted(), p.Now()
		if !r.Test(p, pending) || pending.Payload()[0] != 7 {
			t.Fatal("a test at the arrival instant missed the message")
		}
		if got := eng.EventsExecuted() - ev; got != 0 || p.Now() != t0+cost {
			t.Errorf("a test of a decided receive executed %d events and moved the clock %v, want 0 and %v",
				got, p.Now()-t0, cost)
		}

		p.Sleep(1e-3)
		req := recvOnce(p, r, 0, 2) // claims the message that arrived meanwhile
		ev, t0 = eng.EventsExecuted(), p.Now()
		if !r.Test(p, req) || req.Payload()[0] != 8 {
			t.Fatal("a receive of an arrived message is not complete")
		}
		if got := eng.EventsExecuted() - ev; got != 0 {
			t.Errorf("a test of a complete receive executed %d events", got)
		}
		if p.Now() != t0+cost {
			t.Errorf("a test of a complete receive moved the clock %v, want %v", p.Now()-t0, cost)
		}
		if r.TestCalls != 2 {
			t.Errorf("TestCalls = %d, want 2", r.TestCalls)
		}
	})
	eng.Run()
}

// TestNoEventPerMessageOnOneEngine: on a shared engine a message is not a
// calendar event — neither a delivery nor a send completion runs — and
// unclaimed messages wait in the receiver's channels.
func TestNoEventPerMessageOnOneEngine(t *testing.T) {
	const n = 4
	eng, c := newComm(2)
	params := perf.DefaultParams()
	wire := sim.Time(params.MessageTimeBetween(0, 1, 8))
	eng.Spawn("rank0", func(p *sim.Process) {
		r := c.Rank(0)
		ev := eng.EventsExecuted()
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = sendOnce(p, r, 1, i, nil, 8)
		}
		p.Charge(wire)
		if !r.Test(p, reqs[0]) {
			t.Fatal("send not complete one wire time after posting")
		}
		// Every arrival is past: the sync is the rank's one calendar step.
		p.Sync()
		if got := eng.EventsExecuted() - ev; got != 1 {
			t.Errorf("%d sends and a sync executed %d events, want 1", n, got)
		}
		if recvs, msgs := c.waiting(1); msgs != n || recvs != 0 {
			t.Errorf("%d messages and %d receives waiting, want %d and 0", msgs, recvs, n)
		}
	})
	eng.Run()
}

// TestFaultPlanEventCounts pins a faulted exchange — drops and their
// resends, duplicates, delays and degraded links, polled with Test — to the
// event count, clock and recovery counters recorded before a message and
// its send completion shared an event: the fault plane keeps two events
// per transmission (delivery and send completion) and synchronises every
// charge.
func TestFaultPlanEventCounts(t *testing.T) {
	const n = 6
	eng, c := newComm(n)
	c.SetFaults(faults.NewInjector(&faults.Plan{Seed: 3, Drop: 0.2, Dup: 0.2, Delay: 0.2, Degrade: 0.2}), nil)
	for r := 0; r < n; r++ {
		r := r
		eng.Spawn("rank", func(p *sim.Process) {
			rk := c.Rank(r)
			var reqs []*Request
			for round := 0; round < 3; round++ {
				for s := 0; s < n; s++ {
					if s != r {
						reqs = append(reqs, recvOnce(p, rk, s, round))
						reqs = append(reqs, sendOnce(p, rk, s, round, nil, int64(8<<(4*round))))
					}
				}
				for _, req := range reqs {
					for !rk.Test(p, req) {
					}
				}
				reqs = reqs[:0]
			}
		})
	}
	eng.Run()
	var resends, dups int64
	for r := 0; r < n; r++ {
		resends += c.Rank(r).Resends
		dups += c.Rank(r).DupsDiscarded
	}
	want := [3]int64{595, 25, 15}
	if got := [3]int64{int64(eng.EventsExecuted()), resends, dups}; got != want {
		t.Errorf("events, resends, duplicates = %v, want %v", got, want)
	}
	if end := sim.Time(8.879999999999999e-05); eng.Now() != end {
		t.Errorf("final clock %v, want %v", eng.Now(), end)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	eng, c := newComm(3)
	exits := make([]sim.Time, 3)
	for r := 0; r < 3; r++ {
		r := r
		eng.Spawn("rank", func(p *sim.Process) {
			p.Sleep(sim.Time(r) * 1e-3)
			c.Rank(r).Allreduce(p, 0, OpSum) // an allreduce is a barrier
			exits[r] = p.Now()
		})
	}
	eng.Run()
	if exits[0] != exits[1] || exits[1] != exits[2] {
		t.Fatalf("exit times diverge: %v", exits)
	}
	if exits[0] < 2e-3 {
		t.Fatalf("barrier exited before last arrival: %v", exits)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, c := newComm(2)
	eng.Spawn("rank0", func(p *sim.Process) {
		sendOnce(p, c.Rank(0), 1, 1, nil, 100)
		sendOnce(p, c.Rank(0), 1, 2, nil, 200)
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		await(p, c.Rank(1), recvOnce(p, c.Rank(1), 0, 1))
		await(p, c.Rank(1), recvOnce(p, c.Rank(1), 0, 2))
	})
	eng.Run()
	if c.Rank(0).BytesSent != 300 || c.Rank(0).MsgsSent != 2 {
		t.Errorf("sender stats: %d B, %d msgs", c.Rank(0).BytesSent, c.Rank(0).MsgsSent)
	}
	if c.Rank(1).BytesReceived != 300 || c.Rank(1).MsgsReceived != 2 {
		t.Errorf("receiver stats: %d B, %d msgs", c.Rank(1).BytesReceived, c.Rank(1).MsgsReceived)
	}
}

// Property: an all-to-all random exchange delivers every payload intact
// regardless of posting order.
func TestPropertyRandomExchange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		eng, c := newComm(n)
		sent := make([][]float64, n*n)
		got := make([][]float64, n*n)
		for r := 0; r < n; r++ {
			r := r
			eng.Spawn("rank", func(p *sim.Process) {
				// Post receives and sends in a rank-dependent shuffled order.
				var reqs []*Request
				var slots []int
				if r%2 == 0 {
					p.Sleep(sim.Time(rng.Intn(10)) * 1e-6)
				}
				for s := 0; s < n; s++ {
					if s == r {
						continue
					}
					reqs = append(reqs, recvOnce(p, c.Rank(r), s, 1))
					slots = append(slots, s*n+r)
				}
				for d := 0; d < n; d++ {
					if d == r {
						continue
					}
					payload := []float64{float64(r*1000 + d)}
					sent[r*n+d] = payload
					sendOnce(p, c.Rank(r), d, 1, payload, 8)
				}
				for i, req := range reqs {
					await(p, c.Rank(r), req)
					got[slots[i]] = req.Payload()
				}
			})
		}
		eng.Run()
		for r := 0; r < n; r++ {
			for d := 0; d < n; d++ {
				if r == d {
					continue
				}
				if len(got[r*n+d]) != 1 || got[r*n+d][0] != sent[r*n+d][0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeMessagesFasterThanInterNode(t *testing.T) {
	eng, c := newComm(8) // ranks 0-3 on node 0, 4-7 on node 1
	params := perf.DefaultParams()
	bytes := int64(8 << 20)
	var intra, inter sim.Time
	eng.Spawn("rank0", func(p *sim.Process) {
		sendOnce(p, c.Rank(0), 1, 1, nil, bytes) // same node
		sendOnce(p, c.Rank(0), 4, 2, nil, bytes) // other node
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		start := p.Now()
		await(p, c.Rank(1), recvOnce(p, c.Rank(1), 0, 1))
		intra = p.Now() - start
	})
	eng.Spawn("rank4", func(p *sim.Process) {
		start := p.Now()
		await(p, c.Rank(4), recvOnce(p, c.Rank(4), 0, 2))
		inter = p.Now() - start
	})
	eng.Run()
	if intra >= inter {
		t.Fatalf("intra-node transfer (%v) should beat inter-node (%v)", intra, inter)
	}
	_ = params
}
