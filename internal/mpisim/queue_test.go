package mpisim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sunuintah/internal/sim"
)

// len returns the number of live entries.
func (q *queue[T]) len() int { return len(q.slots) - q.gone }

// checkQueue fails unless q's slots hold no more gone entries than live
// ones, the bound compaction keeps.
func checkQueue[T any](t *testing.T, name string, q *queue[T]) {
	t.Helper()
	if q.gone > 0 && 2*q.gone >= len(q.slots) {
		t.Fatalf("%s: %d of %d slots gone, want fewer than half", name, q.gone, len(q.slots))
	}
}

// TestQueueMatchesPostingOrderList drives a queue and a plain list through
// the same random pushes and takes over a few keys: every take returns
// what the list's first entry with that key holds, the live counts agree,
// and compaction keeps the gone slots under half.
func TestQueueMatchesPostingOrderList(t *testing.T) {
	type entry struct{ src, tag, v int }
	rng := rand.New(rand.NewSource(43))
	var q queue[int]
	var list []entry
	compactions := 0
	for op := 0; op < 20000; op++ {
		src, tag := rng.Intn(3), rng.Intn(4)
		before := len(q.slots)
		// Push while the list is short, so it stays at about a dozen.
		if rng.Intn(24) >= len(list) {
			q.push(src, tag, op)
			list = append(list, entry{src, tag, op})
		} else {
			got, ok := q.take(src, tag)
			i := slices.IndexFunc(list, func(e entry) bool { return e.src == src && e.tag == tag })
			if ok != (i >= 0) || ok && got != list[i].v {
				t.Fatalf("op %d: take(%d, %d) = %d, %v; the list holds it at %d", op, src, tag, got, ok, i)
			}
			if ok {
				list = slices.Delete(list, i, i+1)
			}
			if len(q.slots) < before {
				compactions++
			}
		}
		if q.len() != len(list) {
			t.Fatalf("op %d: %d live entries, the list holds %d", op, q.len(), len(list))
		}
		checkQueue(t, "queue", &q)
	}
	if compactions < 300 {
		t.Errorf("only %d compactions in 20000 operations", compactions)
	}
}

// TestPropertyMatchingFollowsPostingOrder: rounds of random posts among
// four ranks, on few tags so (src, tag) pairs repeat within a round and
// across rounds, hand every message to the receive MPI's non-overtaking
// rule names — per (src, dst, tag), the k-th receive posted takes the k-th
// message sent — on the pairing path (one engine, no injector: sends pair
// with posted receives or wait on the inflight list) and in the engine's
// reference mode (every message delivered by an event, matched against
// posted receives or left on the unexpected list). The traffic compacts the
// queues many times, and each queue keeps fewer gone slots than live ones.
func TestPropertyMatchingFollowsPostingOrder(t *testing.T) {
	const ranks, rounds, tags = 4, 40, 3
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	type key struct{ src, dst, tag int }
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, reference := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine()
			eng.SetReference(reference)
			c := NewComm(eng, exactParams(), ranks)
			// want[k] lists the ids of k's messages in send order, got[k]
			// the ids its receives took, in posting order.
			want, got := map[key][]int{}, map[key][]int{}
			compactions, lens := 0, make([]int, 3*ranks)
			observe := func() {
				for r := 0; r < ranks; r++ {
					rk := c.Rank(r)
					checkQueue(t, "recvs", &rk.recvs)
					checkQueue(t, "inflight", &rk.inflight)
					checkQueue(t, "unexpected", &rk.unexpected)
					for i, n := range []int{len(rk.recvs.slots), len(rk.inflight.slots), len(rk.unexpected.slots)} {
						if n < lens[3*r+i] {
							compactions++
						}
						lens[3*r+i] = n
					}
				}
			}
			// Every round draws each rank's sends and the matching receives,
			// shuffles each rank's posts with charges, and ends with every
			// rank awaiting its receives, so no round can deadlock.
			type post struct {
				send   bool
				peer   int
				tag    int
				id     int
				charge sim.Time
			}
			scripts := make([][][]post, ranks)
			id := 0
			for round := 0; round < rounds; round++ {
				ops := make([][]post, ranks)
				for n := rng.Intn(40 * ranks); n > 0; n-- {
					src, dst, tag := rng.Intn(ranks), rng.Intn(ranks), rng.Intn(tags)
					ops[src] = append(ops[src], post{send: true, peer: dst, tag: tag, id: id})
					ops[dst] = append(ops[dst], post{peer: src, tag: tag})
					id++
				}
				for r := range ops {
					for n := rng.Intn(len(ops[r]) + 1); n > 0; n-- {
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
					for _, round := range scripts[r] {
						type recv struct {
							k   key
							req *Request
						}
						var recvs []recv
						for _, op := range round {
							switch {
							case op.charge > 0:
								rk.Charge(p, op.charge)
							case op.send:
								k := key{r, op.peer, op.tag}
								want[k] = append(want[k], op.id)
								rk.Free(rk.Isend(p, op.peer, op.tag, []float64{float64(op.id)}, 8))
							default:
								recvs = append(recvs, recv{key{op.peer, r, op.tag}, rk.Irecv(p, op.peer, op.tag)})
							}
							observe()
						}
						for _, rv := range recvs {
							await(p, rk, rv.req)
							got[rv.k] = append(got[rv.k], int(rv.req.Payload()[0]))
							rk.Free(rv.req)
							observe()
						}
					}
				})
			}
			eng.Run()
			for r := 0; r < ranks; r++ {
				rk := c.Rank(r)
				if n := rk.recvs.len() + rk.inflight.len() + rk.unexpected.len(); n != 0 {
					t.Errorf("seed %d reference=%v: %d entries left on rank %d's queues", seed, reference, n, r)
				}
			}
			for k, ids := range want {
				if !slices.Equal(got[k], ids) {
					t.Fatalf("seed %d reference=%v: %+v: receives took %v, sent %v", seed, reference, k, got[k], ids)
				}
			}
			if compactions < 100 {
				t.Errorf("seed %d reference=%v: only %d compactions observed", seed, reference, compactions)
			}
		}
	}
}

// BenchmarkMatch times one message's match at a steady number of pending
// entries on the receiver: each iteration posts a send the receiver has no
// receive for yet (it waits on the inflight list) and a receive that claims
// the send posted pending iterations before, so the list holds pending
// unclaimed messages with distinct tags and every claim takes its oldest.
func BenchmarkMatch(b *testing.B) {
	for _, pending := range []int{26, 512} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			eng, c := newComm(2)
			eng.Spawn("rank", func(p *sim.Process) {
				send, recv := c.Rank(0), c.Rank(1)
				for tag := 0; tag < pending; tag++ {
					send.Free(send.Isend(p, 1, tag, nil, 8))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					send.Free(send.Isend(p, 1, pending+i, nil, 8))
					req := recv.Irecv(p, 0, i)
					if !req.decided {
						b.Fatal("receive did not pair")
					}
					recv.Free(req)
				}
			})
			eng.Run()
		})
	}
}
