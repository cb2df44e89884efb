package mpisim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sunuintah/internal/faults"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
)

// channels returns the channels into rank dst.
func (c *Comm) channels(dst int) []*channel {
	var out []*channel
	for _, ch := range c.chans {
		if ch.dst.rank == dst {
			out = append(out, ch)
		}
	}
	return out
}

// waiting returns how many started receives with no message yet and how
// many messages wait in the channels into rank dst.
func (c *Comm) waiting(dst int) (recvs, msgs int) {
	for _, ch := range c.channels(dst) {
		if ch.waiting() != nil {
			recvs++
		}
		msgs += ch.msgs.len()
	}
	return recvs, msgs
}

// mostHeld returns the most messages one channel of c holds, and whether
// some channel holds messages while its receive waits.
func mostHeld(c *Comm) (most int, mixed bool) {
	for r := range c.ranks {
		for _, ch := range c.channels(r) {
			most = max(most, ch.msgs.len())
			mixed = mixed || ch.waiting() != nil && ch.msgs.len() > 0
		}
	}
	return most, mixed
}

// checkChannels fails unless no channel holds messages while its receive
// waits, and returns the most messages one holds.
func checkChannels(t *testing.T, c *Comm) int {
	t.Helper()
	most, mixed := mostHeld(c)
	if mixed {
		t.Fatal("a channel holds messages while its receive waits")
	}
	return most
}

// TestFifoMatchesList drives a fifo and a plain list through the same
// random pushes and drops: the front is always the list's first entry, the
// lengths agree, the ring wraps and grows, and a dropped slot is cleared.
func TestFifoMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var f fifo[*int]
	var list []*int
	wraps, grows := 0, 0
	for op := 0; op < 20000; op++ {
		// Push while the list is short, so it stays at about a dozen.
		if rng.Intn(24) >= len(list) {
			size := len(f.buf)
			v := new(int)
			*v = op
			*f.push() = v
			list = append(list, v)
			if len(f.buf) > size {
				grows++
			}
		} else {
			head := f.head
			if got := *f.front(); got != list[0] {
				t.Fatalf("op %d: front %d, the list starts with %d", op, *got, *list[0])
			}
			f.drop()
			if f.buf[head] != nil {
				t.Fatalf("op %d: a dropped slot keeps its value", op)
			}
			if f.head < head {
				wraps++
			}
			list = list[1:]
		}
		if f.len() != len(list) {
			t.Fatalf("op %d: fifo holds %d, the list %d", op, f.len(), len(list))
		}
	}
	if wraps < 100 || grows < 3 {
		t.Errorf("%d wraps and %d grows in 20000 operations", wraps, grows)
	}
}

// TestPropertyMatchingFollowsPostingOrder: rounds of random posts among
// four ranks, on few streams per pair of ranks so streams repeat within a
// round and across rounds, hand every message to the receive MPI's
// non-overtaking rule names — per stream, the k-th start of its receive
// takes the k-th message sent — on the pairing path (one engine, no
// injector: sends pair with a waiting receive or wait in the channel) and
// in the engine's reference mode (every message delivered by an event,
// matched against a waiting receive or left in the channel). Each stream
// has one send and one receive request, each restarted only once
// complete: a post on a stream whose receive is still in progress is kept
// for the restart. No channel ever holds messages while its receive
// waits, some hold several, and all are empty at the end.
func TestPropertyMatchingFollowsPostingOrder(t *testing.T) {
	const ranks, rounds, streams = 4, 40, 3
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	type key struct{ src, dst, n int }
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, reference := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine()
			eng.SetReference(reference)
			c := NewComm(eng, exactParams(), ranks)
			// want[k] lists the ids of k's messages in send order, got[k]
			// the ids its receive took, in start order.
			want, got := map[key][]int{}, map[key][]int{}
			most := 0
			// Every round draws each rank's sends and the matching receives,
			// shuffles each rank's posts with charges, and ends with every
			// rank awaiting its receives, so no round can deadlock.
			type post struct {
				send   bool
				peer   int
				n      int
				id     int
				charge sim.Time
			}
			scripts := make([][][]post, ranks)
			id := 0
			for round := 0; round < rounds; round++ {
				ops := make([][]post, ranks)
				for k := rng.Intn(40 * ranks); k > 0; k-- {
					src, dst, n := rng.Intn(ranks), rng.Intn(ranks), rng.Intn(streams)
					ops[src] = append(ops[src], post{send: true, peer: dst, n: n, id: id})
					ops[dst] = append(ops[dst], post{peer: src, n: n})
					id++
				}
				for r := range ops {
					for k := rng.Intn(len(ops[r]) + 1); k > 0; k-- {
						ops[r] = append(ops[r], post{charge: sim.Time(1+rng.Intn(16)) * 0.25})
					}
					rng.Shuffle(len(ops[r]), func(i, j int) { ops[r][i], ops[r][j] = ops[r][j], ops[r][i] })
					scripts[r] = append(scripts[r], ops[r])
				}
			}
			for r := 0; r < ranks; r++ {
				r := r
				eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Process) {
					rk := c.Rank(r)
					// Requests by peer*streams+n. live marks a receive
					// started and not yet taken; kept counts the posts
					// waiting for its restart.
					sends := make([]Request, ranks*streams)
					recvs := make([]Request, ranks*streams)
					live := make([]bool, ranks*streams)
					kept := make([]int, ranks*streams)
					for peer := 0; peer < ranks; peer++ {
						for n := 0; n < streams; n++ {
							rk.SendInit(&sends[peer*streams+n], peer, n, 8)
							rk.RecvInit(&recvs[peer*streams+n], peer, n)
						}
					}
					for _, round := range scripts[r] {
						for _, op := range round {
							i := op.peer*streams + op.n
							switch {
							case op.charge > 0:
								rk.Charge(p, op.charge)
							case op.send:
								for !rk.Test(p, &sends[i]) {
								}
								k := key{r, op.peer, op.n}
								want[k] = append(want[k], op.id)
								rk.Start(p, &sends[i], op.n, []float64{float64(op.id)})
							case live[i]:
								kept[i]++
							default:
								rk.Start(p, &recvs[i], op.n, nil)
								live[i] = true
							}
							most = max(most, checkChannels(t, c))
						}
						for i := range recvs {
							for live[i] {
								await(p, rk, &recvs[i])
								k := key{i / streams, r, i % streams}
								got[k] = append(got[k], int(recvs[i].Payload()[0]))
								live[i] = kept[i] > 0
								if live[i] {
									kept[i]--
									rk.Start(p, &recvs[i], i%streams, nil)
								}
								most = max(most, checkChannels(t, c))
							}
						}
					}
				})
			}
			eng.Run()
			for r := 0; r < ranks; r++ {
				if recvs, msgs := c.waiting(r); recvs+msgs != 0 {
					t.Errorf("seed %d reference=%v: %d receives and %d messages left in rank %d's channels", seed, reference, recvs, msgs, r)
				}
			}
			for k, ids := range want {
				if !slices.Equal(got[k], ids) {
					t.Fatalf("seed %d reference=%v: %+v: receives took %v, sent %v", seed, reference, k, got[k], ids)
				}
			}
			if most < 4 {
				t.Errorf("seed %d reference=%v: no channel held more than %d messages", seed, reference, most)
			}
		}
	}
}

// TestRestartWithFirePending: a receive paired while its owner was parked
// on it has its signal's fire scheduled at the arrival. The owner, woken
// earlier by its deadline, sees the receive complete through Test and
// starts it again before that fire has run. The stale fire must neither
// complete the new incarnation nor end the owner's next park: the owner
// wakes at the second message's arrival, as in the reference mode, where
// each message is a delivery event.
func TestRestartWithFirePending(t *testing.T) {
	type obs struct {
		Wakes []sim.Time
		Tests []bool
		Ends  [2]sim.Time
	}
	run := func(reference bool) obs {
		eng := sim.NewEngine()
		eng.SetReference(reference)
		c := NewComm(eng, exactParams(), 2)
		var o obs
		eng.Spawn("rank1", func(p *sim.Process) {
			r := c.Rank(1)
			var req Request
			r.RecvInit(&req, 0, 0)
			r.Start(p, &req, 1, nil)
			p.Sync()
			until := sim.Time(0.75)
			r.Watch(p, &req, &until)
			p.Park(until) // rank 0 posts at 0.75 meanwhile: the message arrives at 2.75
			o.Wakes = append(o.Wakes, p.Now())
			p.Charge(2)
			o.Tests = append(o.Tests, r.Test(p, &req))
			if !reference && (!req.firing || eng.Now() != 3 || p.Engine().NextEventTime() != 2.75) {
				t.Fatalf("restart at %v with firing %v and the next event at %v, want 3, true and the fire at 2.75",
					eng.Now(), req.firing, p.Engine().NextEventTime())
			}
			r.Start(p, &req, 2, nil)
			p.Sync() // the stale fire runs here
			until = sim.Infinity
			r.Watch(p, &req, &until)
			p.Park(until)
			o.Wakes = append(o.Wakes, p.Now())
			o.Tests = append(o.Tests, r.Test(p, &req))
			if req.Payload()[0] != 2 || req.firing || req.stale != 0 {
				t.Errorf("reference=%v: payload %v, firing %v, %d stale fires, want [2], false, 0",
					reference, req.Payload(), req.firing, req.stale)
			}
			o.Ends[1] = p.Now()
		})
		eng.Spawn("rank0", func(p *sim.Process) {
			r := c.Rank(0)
			var req Request
			r.SendInit(&req, 1, 0, 8)
			p.Sleep(0.5)
			r.Start(p, &req, 1, []float64{1})
			p.Charge(2)
			if !r.Test(p, &req) {
				t.Error("send not complete one wire time after posting")
			}
			p.Sleep(1)
			r.Start(p, &req, 2, []float64{2}) // at 4.25: the message arrives at 6.25
			o.Ends[0] = p.Now()
		})
		eng.Run()
		return o
	}
	fast, ref := run(false), run(true)
	if want := []sim.Time{0.75, 6.25}; !slices.Equal(fast.Wakes, want) {
		t.Errorf("fast run woke at %v, want %v", fast.Wakes, want)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Errorf("fast run observed %+v, reference %+v", fast, ref)
	}
}

// aheadStream is one stream of the run-ahead model: every step its sender
// charges pack and sends one message of bytes to its receiver.
type aheadStream struct {
	src, dst, ch int
	bytes        int64
	pack         sim.Time
}

// aheadModel is a one-directional exchange: streams go from lower to
// higher ranks only, and every step a rank starts its receives and sends,
// charges its work and then, like the scheduler's loop, charges a poll,
// tests them all and parks if none completed, until all of them have.
// Each rank's work has its own scale: where a receiver's is the larger,
// its sender runs steps ahead and their channels hold several messages;
// where it is the smaller, the receiver parks on receives its sender has
// not started yet.
type aheadModel struct {
	ranks, steps int
	streams      []aheadStream
	work         [][]sim.Time // [rank][step]
	park         sim.Time     // bound on a park while requests are pending
	poll         sim.Time     // work charged before each pass of tests
}

func newAheadModel(rng *rand.Rand) aheadModel {
	m := aheadModel{ranks: 2 + rng.Intn(3), steps: 2 + rng.Intn(7), park: sim.Time(1+rng.Intn(20)) * 1e-6,
		poll: sim.Time(rng.Intn(3000)) * 1e-9}
	next := map[[2]int]int{}
	for n := 1 + rng.Intn(3*m.ranks); n > 0; n-- {
		src := rng.Intn(m.ranks - 1)
		dst := src + 1 + rng.Intn(m.ranks-1-src)
		k := [2]int{src, dst}
		m.streams = append(m.streams, aheadStream{src: src, dst: dst, ch: next[k], bytes: rng.Int63n(1 << 16),
			pack: sim.Time(rng.Intn(4000)) * 1e-9})
		next[k]++
	}
	m.work = make([][]sim.Time, m.ranks)
	for r := range m.work {
		scale := 1 + rng.Intn(2*m.ranks)
		for s := 0; s < m.steps; s++ {
			m.work[r] = append(m.work[r], sim.Time(rng.Intn(1000*scale))*1e-9)
		}
	}
	return m
}

// aheadLog is what a run of the model observes: per rank its Test results
// with clocks, its wake clocks and its final clock, the stats and the
// fault plane's counters, and per stream the payload steps received in
// order.
type aheadLog struct {
	Tests    [][]testObs
	Wakes    [][]sim.Time
	Clocks   []sim.Time
	Stats    [][6]int64
	Received [][]int
	Events   uint64
}

// runAhead runs m on the engine(s) on selects, under plan when it is not
// nil, and returns what it observes and the most messages one channel held
// after a rank's starts. Every stream runs on one request per end, started
// once a step with a step-folded tag, as the scheduler's are.
func runAhead(m aheadModel, on exchangeEngine, plan *faults.Plan) (aheadLog, int) {
	params := perf.DefaultParams()
	engs, c, run := newExchangeComm(params, m.ranks, on)
	if plan != nil {
		c.SetFaults(faults.NewInjector(plan), nil)
	}
	most := 0
	log := aheadLog{Tests: make([][]testObs, m.ranks), Wakes: make([][]sim.Time, m.ranks),
		Clocks: make([]sim.Time, m.ranks), Stats: make([][6]int64, m.ranks), Received: make([][]int, len(m.streams))}
	for r := 0; r < m.ranks; r++ {
		r := r
		engs[r].Spawn("rank", func(p *sim.Process) {
			rk := c.Rank(r)
			reqs := make([]Request, len(m.streams))
			for i, st := range m.streams {
				switch r {
				case st.dst:
					rk.RecvInit(&reqs[i], st.src, st.ch)
				case st.src:
					rk.SendInit(&reqs[i], st.dst, st.ch, st.bytes)
				}
			}
			type pending struct {
				stream int
				req    *Request
			}
			var live []pending
			for step := 0; step < m.steps; step++ {
				tag := func(i int) int { return step*len(m.streams) + i }
				for _, send := range []bool{false, true} {
					for i, st := range m.streams {
						if send && st.src != r || !send && st.dst != r {
							continue
						}
						req := &reqs[i]
						if send {
							rk.Charge(p, st.pack)
							rk.Start(p, req, tag(i), []float64{float64(step)})
						} else {
							rk.Start(p, req, tag(i), nil)
						}
						live = append(live, pending{i, req})
					}
				}
				if on != perShard {
					n, _ := mostHeld(c)
					most = max(most, n)
				}
				rk.Charge(p, m.work[r][step])
				for len(live) > 0 {
					rk.Charge(p, m.poll)
					n := 0
					for _, pd := range live {
						ok := rk.Test(p, pd.req)
						log.Tests[r] = append(log.Tests[r], testObs{pd.stream, ok, p.Now()})
						switch {
						case !ok:
							live[n] = pd
							n++
						case m.streams[pd.stream].dst == r:
							log.Received[pd.stream] = append(log.Received[pd.stream], int(pd.req.Payload()[0]))
						}
					}
					if n == len(live) {
						p.Sync()
						until := p.Now() + m.park
						for _, pd := range live {
							rk.Watch(p, pd.req, &until)
						}
						p.Park(until)
						log.Wakes[r] = append(log.Wakes[r], p.Now())
					}
					live = live[:n]
				}
			}
			log.Clocks[r] = p.Now()
		})
	}
	log.Events = run()
	for r := 0; r < m.ranks; r++ {
		rk := c.Rank(r)
		log.Stats[r] = [6]int64{rk.TestCalls, rk.BytesReceived, rk.MsgsReceived, rk.MsgsSent, rk.Resends, rk.DupsDiscarded}
	}
	return log, most
}

// TestPropertyRunAheadMatchesReference: in random one-directional
// exchanges, where senders run steps ahead of their receivers and a
// channel holds several messages, persistent requests on one serial engine
// observe what the engine's reference mode does, and what one rank per
// shard does; every receive takes its own step's message.
func TestPropertyRunAheadMatchesReference(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	most := 0
	f := func(seed int64) bool {
		m := newAheadModel(rand.New(rand.NewSource(seed)))
		want, _ := runAhead(m, referenceEngine, nil)
		for i, got := range want.Received {
			for step, s := range got {
				if s != step {
					t.Logf("seed %d: stream %d's receive of step %d took step %d's message", seed, i, step, s)
					return false
				}
			}
		}
		for _, on := range []exchangeEngine{fastEngine, perShard} {
			got, held := runAhead(m, on, nil)
			most = max(most, held)
			got.Events = want.Events
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, %d ranks, %d streams, engine %d:\ngot       %+v\nreference %+v",
					seed, m.ranks, len(m.streams), on, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: seeds, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
	if most < 3 {
		t.Errorf("no channel held more than %d messages: no sender ran ahead", most)
	}
}

// TestRunAheadFaultCounters: the run-ahead model under a fault plan with
// drops, duplicates, delays and degraded links observes the same on the
// fast engine and in the reference mode, and its executed events, resends,
// discarded duplicates and final clocks over 40 seeds are the ones
// recorded with one-shot requests matched by (source, tag) queues, before
// channels.
func TestRunAheadFaultCounters(t *testing.T) {
	var got [3]int64
	var clocks sim.Time
	for seed := int64(0); seed < 40; seed++ {
		m := newAheadModel(rand.New(rand.NewSource(seed)))
		plan := &faults.Plan{Seed: uint64(seed), Drop: 0.15, Dup: 0.2, Delay: 0.15, Degrade: 0.1}
		want, _ := runAhead(m, fastEngine, plan)
		if log, _ := runAhead(m, referenceEngine, plan); !reflect.DeepEqual(log, want) {
			t.Fatalf("seed %d, reference mode:\ngot  %+v\nwant %+v", seed, log, want)
		}
		got[0] += int64(want.Events)
		for r, st := range want.Stats {
			got[1] += st[4]
			got[2] += st[5]
			clocks += want.Clocks[r]
		}
	}
	if want := [3]int64{9607, 165, 166}; got != want {
		t.Errorf("events, resends, duplicates = %v, want %v", got, want)
	}
	if want := sim.Time(0.010883987071428566); clocks != want {
		t.Errorf("final clocks sum to %v, want %v", clocks, want)
	}
}

// TestFaultDedupStateBounded: over a long faulty run of persistent
// requests — four ranks, two streams each way between neighbours on a
// ring, 400 steps with duplicates, drops and delays — every receive takes
// its own step's payload, duplicates are discarded by the channel's last
// delivered number alone, and the dedup state, one number per channel,
// stays at the 16 channels the streams made, however many transmissions
// run.
func TestFaultDedupStateBounded(t *testing.T) {
	const ranks, streams, steps = 4, 2, 400
	eng, c := newComm(ranks)
	c.SetFaults(faults.NewInjector(&faults.Plan{Seed: 5, Drop: 0.1, Dup: 0.3, Delay: 0.1}), nil)
	channels := make([]int, steps)
	for r := 0; r < ranks; r++ {
		r := r
		eng.Spawn("rank", func(p *sim.Process) {
			rk := c.Rank(r)
			peers := []int{(r + 1) % ranks, (r + ranks - 1) % ranks}
			recvs := make([]Request, len(peers)*streams)
			sends := make([]Request, len(peers)*streams)
			for i := range recvs {
				rk.RecvInit(&recvs[i], peers[i/streams], i%streams)
				rk.SendInit(&sends[i], peers[i/streams], i%streams, 8<<(i%3*4))
			}
			for step := 0; step < steps; step++ {
				for i := range recvs {
					rk.Start(p, &recvs[i], 0, nil)
				}
				for i := range sends {
					rk.Start(p, &sends[i], step, []float64{float64(step)})
				}
				for i := range recvs {
					await(p, rk, &recvs[i])
					if got := recvs[i].Payload()[0]; got != float64(step) {
						t.Fatalf("rank %d step %d: receive %d took step %v's payload", r, step, i, got)
					}
				}
				for i := range sends {
					for !rk.Test(p, &sends[i]) {
					}
				}
				if r == 0 {
					channels[step] = len(c.chans)
				}
			}
		})
	}
	eng.Run()
	var resends, dups int64
	for r := 0; r < ranks; r++ {
		resends += c.Rank(r).Resends
		dups += c.Rank(r).DupsDiscarded
	}
	if resends == 0 || dups < steps {
		t.Errorf("%d resends and %d duplicates discarded in %d steps: the plan did not bite", resends, dups, steps)
	}
	for step, n := range channels {
		if n != ranks*2*streams {
			t.Fatalf("step %d: %d channels, want %d", step, n, ranks*2*streams)
		}
	}
}

// BenchmarkStart times one step of a persistent stream on one engine: the
// receive starts, then the send, which pairs with it, and both test
// complete. It allocates nothing.
func BenchmarkStart(b *testing.B) {
	eng, c := newComm(2)
	eng.Spawn("rank", func(p *sim.Process) {
		send, recv := c.Rank(0), c.Rank(1)
		var sq, rq Request
		send.SendInit(&sq, 1, 0, 8)
		recv.RecvInit(&rq, 0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recv.Start(p, &rq, i, nil)
			send.Start(p, &sq, i, nil)
			p.Charge(1e-3)
			if !recv.Test(p, &rq) || !send.Test(p, &sq) {
				b.Fatal("a paired stream did not complete")
			}
		}
	})
	eng.Run()
}
