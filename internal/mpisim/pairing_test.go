package mpisim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
)

// exactParams makes every time in a two-rank exchange a binary fraction,
// so a test can land exactly on an arrival instant: an 8-byte message
// between ranks 0 and 1 (one node) takes 2 s on the wire, a post and a
// test 0.25 s each.
func exactParams() perf.Params {
	params := perf.DefaultParams()
	params.MPIPostCost, params.MPITestCost = 0.25, 0.25
	params.IntraNodeLatency, params.IntraNodeBandwidth = 1, 8
	return params
}

// await parks p until req is complete, the way a scheduler rank with
// nothing else to do waits: meet the calendar, Watch the request, Park,
// and look again. It charges nothing, so p leaves at the completion instant
// (at once if that has passed).
func await(p *sim.Process, r *Rank, req *Request) {
	p.Sync()
	for !((req.decided || req.matched) && req.doneAt <= p.Now()) {
		until := sim.Infinity
		r.Watch(p, req, &until)
		p.Park(until)
	}
}

// TestPairedReceiveTestIsLazy: a receive paired with a message that
// arrives after the test ends is answered false without meeting the
// calendar — no event runs and the clock moves by exactly the test cost —
// whether the send was posted first (the receive claims it from the
// in-flight list) or the receive was (the send pairs with it). A park on
// the receive ends at the arrival instant, with the payload in place.
func TestPairedReceiveTestIsLazy(t *testing.T) {
	for _, recvFirst := range []bool{false, true} {
		eng := sim.NewEngine()
		c := NewComm(eng, exactParams(), 2)
		recv := func(p *sim.Process) {
			r := c.Rank(1)
			req := r.Irecv(p, 0, 1)
			if recvFirst {
				p.Sleep(0.5) // the send posts meanwhile and pairs with req
			}
			if req.doneAt != 2.25 {
				t.Fatalf("recvFirst=%v: paired receive knows doneAt %v, want 2.25", recvFirst, req.doneAt)
			}
			ev, t0 := eng.EventsExecuted(), p.Now()
			if r.Test(p, req) {
				t.Fatalf("recvFirst=%v: a message on the wire tested complete", recvFirst)
			}
			if got := eng.EventsExecuted() - ev; got != 0 {
				t.Errorf("recvFirst=%v: a test of a receive due later executed %d events", recvFirst, got)
			}
			if p.Now() != t0+0.25 {
				t.Errorf("recvFirst=%v: the test moved the clock %v, want 0.25", recvFirst, p.Now()-t0)
			}
			await(p, r, req)
			if p.Now() != 2.25 || req.Payload()[0] != 7 {
				t.Errorf("recvFirst=%v: receive completed at %v with %v, want 2.25 and [7]", recvFirst, p.Now(), req.Payload())
			}
		}
		if recvFirst {
			eng.Spawn("rank1", recv)
		}
		eng.Spawn("rank0", func(p *sim.Process) {
			c.Rank(0).Isend(p, 1, 1, []float64{7}, 8)
			if !recvFirst && len(c.Rank(1).inflight) != 1 {
				t.Errorf("an unclaimed send is not on the in-flight list")
			}
		})
		if !recvFirst {
			eng.Spawn("rank1", recv)
		}
		eng.Run()
		if n := len(c.Rank(1).inflight) + len(c.Rank(1).recvs) + len(c.Rank(1).unexpected); n != 0 {
			t.Errorf("recvFirst=%v: %d entries left on rank 1's queues", recvFirst, n)
		}
	}
}

// TestReferenceReceiveIsAnEvent is TestPairedReceiveTestIsLazy's inverse:
// in the engine's reference mode the same message is delivered by an event
// whichever side posts first. Neither request is decided, nothing waits on
// the in-flight list, the test of the receive meets the calendar, and a
// park on it ends at the arrival, when the delivery fires its signal.
func TestReferenceReceiveIsAnEvent(t *testing.T) {
	for _, recvFirst := range []bool{false, true} {
		eng := sim.NewEngine()
		eng.SetReference(true)
		c := NewComm(eng, exactParams(), 2)
		recv := func(p *sim.Process) {
			r := c.Rank(1)
			req := r.Irecv(p, 0, 1)
			if recvFirst {
				p.Sleep(0.5) // the send posts meanwhile
			}
			if req.decided || req.matched {
				t.Fatalf("recvFirst=%v: the receive knows its message before the delivery", recvFirst)
			}
			ev := eng.EventsExecuted()
			if r.Test(p, req) {
				t.Fatalf("recvFirst=%v: a message on the wire tested complete", recvFirst)
			}
			if eng.EventsExecuted() == ev {
				t.Errorf("recvFirst=%v: the test did not meet the calendar", recvFirst)
			}
			await(p, r, req)
			if p.Now() != 2.25 || req.decided || req.Payload()[0] != 7 {
				t.Errorf("recvFirst=%v: receive completed at %v (decided %v) with %v, want 2.25 by delivery and [7]",
					recvFirst, p.Now(), req.decided, req.Payload())
			}
		}
		if recvFirst {
			eng.Spawn("rank1", recv)
		}
		eng.Spawn("rank0", func(p *sim.Process) {
			req := c.Rank(0).Isend(p, 1, 1, []float64{7}, 8)
			if req.decided || len(c.Rank(1).inflight) != 0 {
				t.Errorf("recvFirst=%v: the send is decided (%v) or on the in-flight list", recvFirst, req.decided)
			}
		})
		if !recvFirst {
			eng.Spawn("rank1", recv)
		}
		eng.Run()
		if n := len(c.Rank(1).inflight) + len(c.Rank(1).recvs) + len(c.Rank(1).unexpected); n != 0 {
			t.Errorf("recvFirst=%v: %d entries left on rank 1's queues", recvFirst, n)
		}
	}
}

// TestPairedReceiveTieIsArithmetic: a test ending exactly at a paired
// message's arrival is answered from the sender's clock at the post, with no
// event: the delivery event it replaces had the key (arrival, sentAt, its
// number at the post), the test's wake-up (end, clock, a later number), so
// the message is in when the sender posted before or at the tester's clock
// and not when it posted after. The sender runs ahead and posts at 3.25
// (arrival 5.25); the test cost sets where the tester's clock lands.
func TestPairedReceiveTieIsArithmetic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cost sim.Time
		want bool
	}{
		{"posted before", 1, true},
		{"posted at", 2, true},
		{"posted after", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := exactParams()
			params.MPITestCost = float64(tc.cost)
			eng := sim.NewEngine()
			c := NewComm(eng, params, 2)
			eng.Spawn("rank0", func(p *sim.Process) {
				p.Charge(3)
				c.Rank(0).Isend(p, 1, 1, nil, 8)
			})
			eng.Spawn("rank1", func(p *sim.Process) {
				r := c.Rank(1)
				req := r.Irecv(p, 0, 1)
				p.Charge(5.25 - tc.cost - p.Now())
				if p.Now()+tc.cost != req.doneAt || req.sentAt != 3.25 {
					t.Fatalf("test would end at %v, arrival %v posted at %v: not a tie at 5.25 from 3.25",
						p.Now()+tc.cost, req.doneAt, req.sentAt)
				}
				ev, t0 := eng.EventsExecuted(), p.Now()
				if got := r.Test(p, req); got != tc.want {
					t.Errorf("test from %v = %v, want %v", t0, got, tc.want)
				}
				if eng.EventsExecuted() != ev || p.Now() != t0+tc.cost {
					t.Errorf("a tied test executed %d events and moved the clock %v, want 0 and %v",
						eng.EventsExecuted()-ev, p.Now()-t0, tc.cost)
				}
			})
			eng.Run()
		})
	}
}

// TestReceivePairedDuringTestSleep: an unpaired receive's test meets the
// calendar, and a send that pairs with it while the test sleeps was posted
// after the test's wake-up was scheduled, so on a tie with the test's end
// the wake-up comes first unless the sender's clock was strictly earlier.
// The tester sits ahead at 3.25; the sender wakes inside the test's sleep
// and posts so that its message lands exactly at the test's end.
func TestReceivePairedDuringTestSleep(t *testing.T) {
	for _, tc := range []struct {
		name string
		cost sim.Time
		want bool
	}{
		{"posted before", 1, true},
		{"posted at", 2, false},
		{"posted after", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := exactParams()
			params.MPITestCost = float64(tc.cost)
			eng := sim.NewEngine()
			c := NewComm(eng, params, 2)
			end := 3.25 + tc.cost
			eng.Spawn("rank1", func(p *sim.Process) {
				r := c.Rank(1)
				req := r.Irecv(p, 0, 1)
				p.Charge(3)
				if got := r.Test(p, req); got != tc.want {
					t.Errorf("test from 3.25 = %v, want %v", got, tc.want)
				}
				if !req.decided || req.doneAt != end || req.sentAt != end-2 {
					t.Errorf("paired %v with arrival %v from %v, want true %v from %v",
						req.decided, req.doneAt, req.sentAt, end, end-2)
				}
				if p.Now() != end {
					t.Errorf("test returned at %v, want %v", p.Now(), end)
				}
			})
			eng.Spawn("rank0", func(p *sim.Process) {
				p.Sleep(end - 2.25)
				c.Rank(0).Isend(p, 1, 1, nil, 8)
			})
			eng.Run()
		})
	}
}

// TestParkedReceiveWokenAtArrival: a rank parked on a receive whose send is
// not posted yet is woken by the later Isend exactly at the arrival: the
// pairing schedules the receive's signal to fire there, and the fire wakes
// the rank directly — two events, no delivery.
func TestParkedReceiveWokenAtArrival(t *testing.T) {
	eng := sim.NewEngine()
	c := NewComm(eng, exactParams(), 2)
	eng.Spawn("rank1", func(p *sim.Process) {
		r := c.Rank(1)
		req := r.Irecv(p, 0, 1)
		p.Sync()
		until := sim.Infinity
		r.Watch(p, req, &until)
		if until != sim.Infinity {
			t.Fatalf("an unpaired receive set the deadline to %v", until)
		}
		ev := eng.EventsExecuted()
		p.Park(until)
		// rank 0 wakes at 1, posts at 1.25 and meets the calendar there as
		// it exits; then come the fire and this wake-up.
		if p.Now() != 3.25 || eng.EventsExecuted()-ev != 4 {
			t.Errorf("woke at %v after %d events, want 3.25 after 4", p.Now(), eng.EventsExecuted()-ev)
		}
		if req.firing || req.Payload()[0] != 9 {
			t.Errorf("firing %v payload %v, want false [9]", req.firing, req.Payload())
		}
		ev, t0 := eng.EventsExecuted(), p.Now()
		if !r.Test(p, req) || eng.EventsExecuted() != ev || p.Now() != t0+0.25 {
			t.Error("the woken receive did not test complete lazily")
		}
		r.Free(req)
		if next := r.Irecv(p, 0, 2); next != req {
			t.Error("the woken receive was not pooled")
		}
	})
	eng.Spawn("rank0", func(p *sim.Process) {
		p.Sleep(1)
		c.Rank(0).Isend(p, 1, 1, []float64{9}, 8)
	})
	eng.Run()
}

// TestUnpairedReceiveTestMeetsCalendar: a receive whose send is not posted
// yet has no arrival time, so its test synchronises.
func TestUnpairedReceiveTestMeetsCalendar(t *testing.T) {
	eng := sim.NewEngine()
	c := NewComm(eng, exactParams(), 2)
	eng.Spawn("rank1", func(p *sim.Process) {
		r := c.Rank(1)
		req := r.Irecv(p, 0, 1)
		ev := eng.EventsExecuted()
		if r.Test(p, req) {
			t.Fatal("a receive with no send tested complete")
		}
		if eng.EventsExecuted() == ev {
			t.Error("a test of an unpaired receive did not meet the calendar")
		}
	})
	eng.Spawn("rank0", func(p *sim.Process) {
		p.Sleep(1)
		c.Rank(0).Isend(p, 1, 1, nil, 8)
	})
	eng.Run()
}

// TestSameTagPairsInPostOrder: on one engine two equal-size sends with the
// same (src, tag) pair with the receives in post order, each receive
// knowing its message's arrival before either is delivered. The first
// receive is posted before the sends (the first send pairs with it), the
// second after (it claims the second send from the in-flight list).
func TestSameTagPairsInPostOrder(t *testing.T) {
	eng := sim.NewEngine()
	c := NewComm(eng, exactParams(), 2)
	eng.Spawn("rank1", func(p *sim.Process) {
		r := c.Rank(1)
		a := r.Irecv(p, 0, 5)
		p.Sleep(0.5) // rank 0 posts both sends meanwhile
		b := r.Irecv(p, 0, 5)
		if a.doneAt != 2.25 || b.doneAt != 2.5 {
			t.Errorf("paired arrivals %v, %v, want 2.25, 2.5", a.doneAt, b.doneAt)
		}
		await(p, r, a)
		await(p, r, b)
		if a.Payload()[0] != 1 || b.Payload()[0] != 2 {
			t.Errorf("payloads %v, %v, want [1], [2]", a.Payload(), b.Payload())
		}
	})
	eng.Spawn("rank0", func(p *sim.Process) {
		c.Rank(0).Isend(p, 1, 5, []float64{1}, 8)
		c.Rank(0).Isend(p, 1, 5, []float64{2}, 8)
	})
	eng.Run()
}

// TestFreedSendRetiresAtOnce: a send is decided at its post and has no
// completion event, so Free pools it at once; freeing twice pools it once.
func TestFreedSendRetiresAtOnce(t *testing.T) {
	eng := sim.NewEngine()
	c := NewComm(eng, exactParams(), 2)
	eng.Spawn("rank0", func(p *sim.Process) {
		r := c.Rank(0)
		req := r.Isend(p, 1, 1, nil, 8)
		p.Charge(2)
		if !r.Test(p, req) || eng.EventsExecuted() != 1 {
			t.Fatal("want a send complete by the caller's clock with no event past the spawn")
		}
		r.Free(req)
		r.Free(req)
		if next := r.Irecv(p, 1, 2); next != req {
			t.Fatal("a freed send was not pooled")
		}
		if len(r.reqFree) != 0 {
			t.Errorf("a request freed twice sits in the pool %d more times", len(r.reqFree))
		}
	})
	eng.Run()
}

// exchangeLog is what a run of the random exchange model observes: per
// message its send's and its receive's doneAt, per rank the sequence of
// Test results with the clock after each and the clock at each wake from a
// park, the final clocks and the stats.
// A receive's doneAt is taken no earlier than its post: a message that
// arrived before the post completes at the post when it was delivered
// before the Irecv ran, at its arrival when the Irecv ran ahead of the
// calendar (see Irecv); no Test can tell the two apart.
type exchangeLog struct {
	SendDone, RecvDone []sim.Time
	Tests              [][]testObs
	Wakes              [][]sim.Time
	Clocks             []sim.Time
	Stats              [][4]int64
}

type testObs struct {
	Key int // 2*message for its send, 2*message+1 for its receive
	OK  bool
	At  sim.Time
}

type exchangeMsg struct {
	src, dst int
	bytes    int64
}

// exchangeOp is one step of a rank's script: post the send or receive of
// message msg, charge d, test the k-th outstanding request, or park for at
// most d on every outstanding request.
type exchangeOp struct {
	kind int
	msg  int
	d    sim.Time
	k    int
}

const (
	opSend = iota
	opRecv
	opCharge
	opTest
	opPark
)

// exchangeShape sets the scales of a random exchange: message sizes below
// bytes, charges of charge × 0..charges-1 and park bounds of
// park × 0..parks-1.
type exchangeShape struct {
	bytes          int64
	charge, park   sim.Time
	charges, parks int
}

// nsShape draws charges of up to 5 us and park bounds of up to 20 us —
// several wire times — so ranks parked on each other's messages always move
// on, and most parks end at a completion rather than the bound. With the
// default parameters no two times of a run coincide by accident.
var nsShape = exchangeShape{bytes: 1 << 16, charge: 1e-9, charges: 5000, park: 1e-9, parks: 20000}

// tieShape makes every time a binary fraction under tieParams — wire times
// 1 to 4 in eighths, charges and park bounds in quarters — so arrivals,
// test ends, wake-ups and posts land on each other all the time.
var tieShape = exchangeShape{bytes: 25, charge: 0.25, charges: 8, park: 0.25, parks: 40}

// tieParams is exactParams with the inter-node link made as exact as the
// on-node one. Its test cost, 0.25, is below every wire time.
func tieParams() perf.Params {
	params := exactParams()
	params.LinkLatency, params.LinkBandwidth = 1, 8
	return params
}

// newExchangeModel draws 1-8 ranks, messages with unique tags and random
// sizes, and per rank a shuffled script of its posts, charges and tests.
func newExchangeModel(rng *rand.Rand, shape exchangeShape) ([]exchangeMsg, [][]exchangeOp) {
	n := 1 + rng.Intn(8)
	msgs := make([]exchangeMsg, 1+rng.Intn(6*n))
	scripts := make([][]exchangeOp, n)
	for i := range msgs {
		m := exchangeMsg{src: rng.Intn(n), dst: rng.Intn(n), bytes: rng.Int63n(shape.bytes)}
		msgs[i] = m
		scripts[m.src] = append(scripts[m.src], exchangeOp{kind: opSend, msg: i})
		scripts[m.dst] = append(scripts[m.dst], exchangeOp{kind: opRecv, msg: i})
	}
	for r := range scripts {
		for k := rng.Intn(3*len(scripts[r]) + 1); k > 0; k-- {
			if rng.Intn(2) == 0 {
				scripts[r] = append(scripts[r], exchangeOp{kind: opCharge, d: sim.Time(rng.Intn(shape.charges)) * shape.charge})
			} else {
				scripts[r] = append(scripts[r], exchangeOp{kind: opTest, k: rng.Intn(8)})
			}
		}
		rng.Shuffle(len(scripts[r]), func(i, j int) { scripts[r][i], scripts[r][j] = scripts[r][j], scripts[r][i] })
	}
	return msgs, scripts
}

// addParks inserts park ops at random places of every rank's script, each
// bounded by a span the shape draws.
func addParks(rng *rand.Rand, scripts [][]exchangeOp, shape exchangeShape) {
	for r := range scripts {
		for k := rng.Intn(len(scripts[r])/2 + 2); k > 0; k-- {
			op := exchangeOp{kind: opPark, d: sim.Time(rng.Intn(shape.parks)) * shape.park}
			scripts[r] = slices.Insert(scripts[r], rng.Intn(len(scripts[r])+1), op)
		}
	}
}

// exchangeEngine is where runExchange runs the model.
type exchangeEngine int

const (
	fastEngine      exchangeEngine = iota // one serial engine, every fast path on
	referenceEngine                       // one serial engine in the reference mode
	perShard                              // a ShardSet with one rank per shard
)

// runExchange runs the model under params and returns what it observes and
// the events it executed. With one rank per shard every message between
// two ranks crosses engines and matches on delivery; in the reference mode
// every message is delivered by an event and every charge synchronises.
func runExchange(params perf.Params, msgs []exchangeMsg, scripts [][]exchangeOp, on exchangeEngine) (exchangeLog, uint64) {
	n := len(scripts)
	sharded := on == perShard
	engs := make([]*sim.Engine, n)
	var ss *sim.ShardSet
	if sharded {
		look := sim.Time(1)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if w := sim.Time(params.MessageTimeBetween(a, b, 0)); a != b && w < look {
					look = w
				}
			}
		}
		ss = sim.NewShardSet(n, look)
		for r := range engs {
			engs[r] = ss.Engine(r)
		}
	} else {
		eng := sim.NewEngine()
		eng.SetReference(on == referenceEngine)
		for r := range engs {
			engs[r] = eng
		}
	}
	c := NewComm(engs[0], params, n)
	if sharded {
		c.Shard(ss, engs)
	}
	log := exchangeLog{SendDone: make([]sim.Time, len(msgs)), RecvDone: make([]sim.Time, len(msgs)),
		Tests: make([][]testObs, n), Wakes: make([][]sim.Time, n), Clocks: make([]sim.Time, n),
		Stats: make([][4]int64, n)}
	for r := 0; r < n; r++ {
		r := r
		engs[r].Spawn("rank", func(p *sim.Process) {
			rk := c.Rank(r)
			var keys []int
			var reqs []*Request
			var posted []sim.Time
			test := func(i int) {
				ok := rk.Test(p, reqs[i])
				log.Tests[r] = append(log.Tests[r], testObs{keys[i], ok, p.Now()})
				if !ok {
					return
				}
				if keys[i]%2 == 0 {
					log.SendDone[keys[i]/2] = reqs[i].doneAt
				} else {
					log.RecvDone[keys[i]/2] = max(reqs[i].doneAt, posted[i])
				}
				rk.Free(reqs[i])
				keys = slices.Delete(keys, i, i+1)
				reqs = slices.Delete(reqs, i, i+1)
				posted = slices.Delete(posted, i, i+1)
			}
			for _, op := range scripts[r] {
				switch op.kind {
				case opSend:
					m := msgs[op.msg]
					keys = append(keys, 2*op.msg)
					reqs = append(reqs, rk.Isend(p, m.dst, op.msg, nil, m.bytes))
					posted = append(posted, p.Now())
				case opRecv:
					keys = append(keys, 2*op.msg+1)
					reqs = append(reqs, rk.Irecv(p, msgs[op.msg].src, op.msg))
					posted = append(posted, p.Now())
				case opCharge:
					rk.Charge(p, op.d)
				case opTest:
					if len(reqs) > 0 {
						test(op.k % len(reqs))
					}
				case opPark:
					if len(reqs) > 0 {
						p.Sync()
						until := p.Now() + op.d
						for _, q := range reqs {
							rk.Watch(p, q, &until)
						}
						p.Park(until)
						log.Wakes[r] = append(log.Wakes[r], p.Now())
					}
				}
			}
			for len(reqs) > 0 {
				test(0)
			}
			log.Clocks[r] = p.Now()
		})
	}
	if sharded {
		ss.Run()
	} else {
		engs[0].Run()
	}
	var events uint64
	for r := 0; r < n; r++ {
		rk := c.Rank(r)
		log.Stats[r] = [4]int64{rk.TestCalls, rk.BytesReceived, rk.MsgsReceived, rk.MsgsSent}
		if r == 0 || sharded {
			events += engs[r].EventsExecuted()
		}
	}
	return log, events
}

// matchesReference runs the model fast and in the reference mode, and with
// perShard set also with one rank per shard, and reports whether every run
// observes what the reference does while the fast run executes fewer events.
func matchesReference(t *testing.T, seed int64, params perf.Params, msgs []exchangeMsg, scripts [][]exchangeOp, perShardToo bool) bool {
	t.Helper()
	want, wantEvents := runExchange(params, msgs, scripts, referenceEngine)
	ons := []exchangeEngine{fastEngine}
	if perShardToo {
		ons = append(ons, perShard)
	}
	for _, on := range ons {
		got, events := runExchange(params, msgs, scripts, on)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d, %d ranks, %d messages, engine %d:\ngot       %+v\nreference %+v", seed, len(scripts), len(msgs), on, got, want)
			return false
		}
		if on == fastEngine && events >= wantEvents {
			t.Logf("seed %d: fast run executed %d events, reference %d", seed, events, wantEvents)
			return false
		}
	}
	return true
}

// TestPropertyPairAtPostMatchesDeliveryMatching: random exchanges — 1-8
// ranks, interleaved posts with unique tags and random sizes, random
// charges, Test polling — observe the same doneAt for every request, the
// same Test results at the same clocks and the same final clocks whether
// messages pair at post (one serial engine), are delivered by an event on
// the engine's reference mode, or match on delivery (one rank per shard, so
// every message between two ranks crosses engines).
func TestPropertyPairAtPostMatchesDeliveryMatching(t *testing.T) {
	f := func(seed int64) bool {
		msgs, scripts := newExchangeModel(rand.New(rand.NewSource(seed)), nsShape)
		return matchesReference(t, seed, perf.DefaultParams(), msgs, scripts, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyParkMatchesDeliveryMatching: the random exchanges of
// TestPropertyPairAtPostMatchesDeliveryMatching with park ops added — a
// rank meets the calendar, Watches every outstanding request and Parks —
// wake at the same clocks and observe the same doneAt, Test answers and
// final clocks whether a receive pairs at post and a parked rank is woken
// by its deadline or by the fire the pairing Isend schedules (one serial
// engine), or every message is delivered by an event that fires the
// receive's signal (the reference mode, and one rank per shard).
func TestPropertyParkMatchesDeliveryMatching(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		msgs, scripts := newExchangeModel(rng, nsShape)
		addParks(rng, scripts, nsShape)
		return matchesReference(t, seed, perf.DefaultParams(), msgs, scripts, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(34))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTieDenseParkMatchesReference: the exchanges with parks on
// binary-fraction times (tieShape, tieParams), where arrivals, test ends,
// posts and park deadlines often coincide, observe what the reference mode
// does. The test cost is
// below every wire time; with a test cost at or above the shortest wire
// time the fast paths disagree with the reference on some seeds (ROADMAP,
// tie classes). -short runs 200 seeds.
func TestPropertyTieDenseParkMatchesReference(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		msgs, scripts := newExchangeModel(rng, tieShape)
		addParks(rng, scripts, tieShape)
		return matchesReference(t, seed, tieParams(), msgs, scripts, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: seeds, Rand: rand.New(rand.NewSource(40))}); err != nil {
		t.Fatal(err)
	}
}
