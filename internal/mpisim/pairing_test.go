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

// TestPairedReceiveTestIsLazy: a receive paired with a message that
// arrives after the test ends is answered false without meeting the
// calendar — no event runs and the clock moves by exactly the test cost —
// whether the send was posted first (the receive claims it from the
// in-flight list) or the receive was (the send pairs with it). The
// delivery still completes the receive at the arrival instant.
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
			r.Wait(p, req)
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

// TestPairedReceiveTieMeetsCalendar: a test ending exactly at the paired
// message's arrival synchronises — the delivery and the caller's wake-up
// share an instant, so only the calendar knows which comes first.
func TestPairedReceiveTieMeetsCalendar(t *testing.T) {
	eng := sim.NewEngine()
	c := NewComm(eng, exactParams(), 2)
	eng.Spawn("rank0", func(p *sim.Process) {
		c.Rank(0).Isend(p, 1, 1, nil, 8) // arrives at 2.25
	})
	eng.Spawn("rank1", func(p *sim.Process) {
		r := c.Rank(1)
		req := r.Irecv(p, 0, 1)
		p.Charge(1.75)
		if p.Now()+0.25 != req.doneAt {
			t.Fatalf("test would end at %v, arrival %v: not a tie", p.Now()+0.25, req.doneAt)
		}
		ev := eng.EventsExecuted()
		r.Test(p, req)
		if eng.EventsExecuted() == ev {
			t.Error("a test tied with the arrival did not meet the calendar")
		}
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
		r.Wait(p, a)
		r.Wait(p, b)
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

// TestFreedSendRetiresOnCompletion: a send freed before its completion
// event runs is pooled by that event, so the next request reuses it.
func TestFreedSendRetiresOnCompletion(t *testing.T) {
	eng := sim.NewEngine()
	c := NewComm(eng, exactParams(), 2)
	eng.Spawn("rank0", func(p *sim.Process) {
		r := c.Rank(0)
		req := r.Isend(p, 1, 1, nil, 8)
		p.Charge(2)
		if !r.Test(p, req) || req.Signal().Fired() {
			t.Fatal("want a send complete by the caller's clock with its event pending")
		}
		r.Free(req)
		r.Free(req)
		p.Sync()
		if next := r.Irecv(p, 1, 2); next != req {
			t.Fatal("a freed send was not pooled when its completion ran")
		}
		if len(r.reqFree) != 0 {
			t.Errorf("a request freed twice sits in the pool %d more times", len(r.reqFree))
		}
	})
	eng.Run()
}

// exchangeLog is what a run of the random exchange model observes: per
// message its send's and its receive's doneAt, per rank the sequence of
// Test results with the clock after each, the final clocks and the stats.
// A receive's doneAt is taken no earlier than its post: a message that
// arrived before the post completes at the post when it was delivered
// before the Irecv ran, at its arrival when the Irecv ran ahead of the
// calendar (see Irecv); no Test can tell the two apart.
type exchangeLog struct {
	SendDone, RecvDone []sim.Time
	Tests              [][]testObs
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
// message msg, charge d, or test the k-th outstanding request.
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
)

// newExchangeModel draws 1-8 ranks, messages with unique tags and random
// sizes, and per rank a shuffled script of its posts, charges and tests.
func newExchangeModel(rng *rand.Rand) ([]exchangeMsg, [][]exchangeOp) {
	n := 1 + rng.Intn(8)
	msgs := make([]exchangeMsg, 1+rng.Intn(6*n))
	scripts := make([][]exchangeOp, n)
	for i := range msgs {
		m := exchangeMsg{src: rng.Intn(n), dst: rng.Intn(n), bytes: rng.Int63n(1 << 16)}
		msgs[i] = m
		scripts[m.src] = append(scripts[m.src], exchangeOp{kind: opSend, msg: i})
		scripts[m.dst] = append(scripts[m.dst], exchangeOp{kind: opRecv, msg: i})
	}
	for r := range scripts {
		for k := rng.Intn(3*len(scripts[r]) + 1); k > 0; k-- {
			if rng.Intn(2) == 0 {
				scripts[r] = append(scripts[r], exchangeOp{kind: opCharge, d: sim.Time(rng.Intn(5000)) * 1e-9})
			} else {
				scripts[r] = append(scripts[r], exchangeOp{kind: opTest, k: rng.Intn(8)})
			}
		}
		rng.Shuffle(len(scripts[r]), func(i, j int) { scripts[r][i], scripts[r][j] = scripts[r][j], scripts[r][i] })
	}
	return msgs, scripts
}

// runExchange runs the model on one serial engine, or with sharded set on
// a ShardSet with one rank per shard, where every message between two
// ranks crosses engines and matches on delivery.
func runExchange(msgs []exchangeMsg, scripts [][]exchangeOp, sharded bool) exchangeLog {
	n := len(scripts)
	params := perf.DefaultParams()
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
		for r := range engs {
			engs[r] = eng
		}
	}
	c := NewComm(engs[0], params, n)
	if sharded {
		c.Shard(ss, engs)
	}
	log := exchangeLog{SendDone: make([]sim.Time, len(msgs)), RecvDone: make([]sim.Time, len(msgs)),
		Tests: make([][]testObs, n), Clocks: make([]sim.Time, n), Stats: make([][4]int64, n)}
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
	for r := 0; r < n; r++ {
		rk := c.Rank(r)
		log.Stats[r] = [4]int64{rk.TestCalls, rk.BytesReceived, rk.MsgsReceived, rk.MsgsSent}
	}
	return log
}

// TestPropertyPairAtPostMatchesDeliveryMatching: random exchanges — 1-8
// ranks, interleaved posts with unique tags and random sizes, random
// charges, Test polling — observe the same doneAt for every request, the
// same Test results at the same clocks and the same final clocks whether
// messages pair at post (one serial engine) or match on delivery (one rank
// per shard, so every message between two ranks crosses engines).
func TestPropertyPairAtPostMatchesDeliveryMatching(t *testing.T) {
	f := func(seed int64) bool {
		msgs, scripts := newExchangeModel(rand.New(rand.NewSource(seed)))
		serial := runExchange(msgs, scripts, false)
		sharded := runExchange(msgs, scripts, true)
		if !reflect.DeepEqual(serial, sharded) {
			t.Logf("seed %d, %d ranks, %d messages:\nserial  %+v\nsharded %+v", seed, len(scripts), len(msgs), serial, sharded)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Fatal(err)
	}
}
