// Package mpisim is a simulated MPI subset sufficient for the Uintah
// scheduler: non-blocking point-to-point sends and receives with tag
// matching, request testing, and blocking reductions.
//
// Two behaviours of real MPI that the paper's scheduler design depends on
// are modelled faithfully:
//
//   - Transfers take latency + bytes/bandwidth on the interconnect
//     (Table II: ~1 us, 16 GB/s bidirectional P2P).
//   - Completion is only observable through Test/Wait, and each call costs
//     MPE time. "In most MPI implementations, the non-blocking sends and
//     receives do not progress without the help of the host processor"
//     (Section V-C, citing Denis & Trahay): a rank that spins on a
//     completion flag without testing sees none of its communication
//     finish, which is precisely the handicap of the synchronous scheduler.
//
// Payloads are real []float64 slices, so the simulated application's
// numerics are correct across ranks; timing-only runs pass nil payloads
// with an explicit byte count.
//
// Matching follows MPI's non-overtaking rule: per (source, tag), the k-th
// receive posted takes the k-th message. On a shared engine with no fault
// injector a message and its receive pair when the later of the two is
// posted, so the receive knows its arrival while the message is on the
// wire; across shards and under faults they match on delivery. The orders
// agree when messages with one (source, tag) arrive in send order: always
// for equal sizes, and for all scheduler traffic, whose tags are unique per
// (step, label, source patch, destination patch).
//
// On a shared engine with no fault injector a message is a decided value,
// not a calendar event: a send and a paired receive carry their completion
// instant (doneAt) and the sender's clock at the post (sentAt), every Test
// of them is arithmetic on the two, and a rank with nothing to do parks
// until the earliest completion (Watch). The one event left is the fire of
// a receive's signal when its message pairs with it while its owner is
// parked on it. Across shards and under faults a message is delivered by
// an event, as is the fault plane's send completion; so is every message
// in the engine's reference mode, the run the decided path is tested
// against.
package mpisim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sunuintah/internal/faults"
	"sunuintah/internal/obs"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/trace"
)

// Comm is a communicator spanning size ranks (one per core group).
type Comm struct {
	params perf.Params
	ranks  []*Rank

	// engs[r] is the engine that owns rank r's processes and timers. With
	// the serial engine every entry is the same engine; under sharding the
	// entries follow the rank partition and shards coordinates them.
	engs   []*sim.Engine
	shards *sim.ShardSet

	// Fault plane. A nil injector leaves every legacy path untouched.
	inj *faults.Injector
	rec *trace.Recorder

	// Collectives in flight, matched across ranks by call index; an entry
	// is released once every rank has read its result.
	collMu      sync.Mutex
	collectives map[int]*collective
}

// SetFaults attaches a fault injector (and an optional trace recorder for
// fault/recovery markers) to the communicator. With a non-nil injector,
// sends draw a per-transmission fate — drop, duplicate, delay, degrade —
// and dropped messages are re-sent by the owning rank's Test/Wait
// progression, mirroring how real non-blocking MPI only progresses under
// host attention.
func (c *Comm) SetFaults(inj *faults.Injector, rec *trace.Recorder) {
	c.inj = inj
	c.rec = rec
}

// SetObs attaches the flight recorder's per-rank probes: sends record the
// in-flight message/byte series (rising at post time, falling at the
// sender-computed arrival instant, so no event ever touches another
// rank's engine) and fault-plane markers bump the fault/recovery
// counters. Observability only — no simulated behaviour changes.
func (c *Comm) SetObs(s *obs.Sampler) {
	for _, rk := range c.ranks {
		rk.probes = s.Rank(rk.rank)
	}
}

// NewComm builds a communicator with the given number of ranks.
func NewComm(eng *sim.Engine, params perf.Params, size int) *Comm {
	if size <= 0 {
		panic("mpisim: communicator needs at least one rank")
	}
	c := &Comm{params: params, collectives: map[int]*collective{}}
	for r := 0; r < size; r++ {
		c.ranks = append(c.ranks, &Rank{comm: c, rank: r})
		c.engs = append(c.engs, eng)
	}
	return c
}

// Shard routes the communicator over the engines of a sharded run: engs[r]
// is the engine owning rank r. Deliveries between ranks on different
// engines then travel as cross-shard mail with their virtual wire time as
// the delivery time, and collective completions fan out through the
// barrier in canonical order. Must be called before any traffic.
func (c *Comm) Shard(ss *sim.ShardSet, engs []*sim.Engine) {
	if len(engs) != len(c.ranks) {
		panic("mpisim: Shard needs one engine per rank")
	}
	c.shards = ss
	copy(c.engs, engs)
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns rank r's endpoint.
func (c *Comm) Rank(r int) *Rank {
	if r < 0 || r >= len(c.ranks) {
		panic(fmt.Sprintf("mpisim: rank %d out of range [0,%d)", r, len(c.ranks)))
	}
	return c.ranks[r]
}

// Rank is one MPI process's endpoint.
type Rank struct {
	comm *Comm
	rank int

	recvs      []*Request // posted receives with no message yet
	unexpected []*message // delivered messages with no receive yet
	inflight   []message  // unclaimed messages on the wire from this engine

	// nextColl indexes this rank's next collective call, for in-order
	// matching across ranks (the objects live on the Comm).
	nextColl int

	// Stats.
	BytesSent     int64
	BytesReceived int64
	MsgsSent      int64
	MsgsReceived  int64
	TestCalls     int64

	// Fault-plane state and stats (used only with an injector attached).
	seen          map[int64]bool // transmission seqs already delivered
	sendSeq       int64          // rank-local transmission counter
	Resends       int64          // retransmissions of dropped messages
	DupsDiscarded int64          // duplicate deliveries suppressed

	// probes is this rank's flight-recorder hook set (nil = disabled).
	// Touched only from this rank's engine events, so sharding never
	// races on it.
	probes *obs.RankProbes

	// msgFree is this rank's envelope freelist, for messages delivered by
	// an event (across shards, under faults). A sender issues envelopes
	// from its own pool (on its own engine) and the receiver retires them
	// into its pool (on its engine) once consumed, so neither end ever
	// locks. A message between ranks on one engine needs no envelope: it
	// waits on the receiver's inflight list by value.
	msgFree []*message
	// reqFree is the request freelist (see Free).
	reqFree []*Request
}

// getMsg issues an empty envelope from this rank's freelist.
func (r *Rank) getMsg() *message {
	if n := len(r.msgFree); n > 0 {
		m := r.msgFree[n-1]
		r.msgFree[n-1] = nil
		r.msgFree = r.msgFree[:n-1]
		return m
	}
	return &message{}
}

// putMsg retires a fully consumed envelope into this rank's freelist.
func (r *Rank) putMsg(m *message) {
	*m = message{}
	r.msgFree = append(r.msgFree, m)
}

// getReq issues a cleared request from this rank's freelist.
func (r *Rank) getReq() *Request {
	if n := len(r.reqFree); n > 0 {
		q := r.reqFree[n-1]
		r.reqFree[n-1] = nil
		r.reqFree = r.reqFree[:n-1]
		q.freed = nil
		return q
	}
	return &Request{}
}

// putReq pools a request: its signal keeps its waiter list's capacity,
// freed marks it pooled and the rest is cleared.
func (r *Rank) putReq(q *Request) {
	q.reqState = reqState{freed: r}
	r.reqFree = append(r.reqFree, q)
}

// Free retires a completed request into this rank's pool for reuse by a
// later Isend/Irecv. Callers hand back a request only once they are done
// with it entirely — completion observed, payload consumed, nobody left
// waiting on its signal. A receive its owner saw complete before the fire
// of its signal ran (it woke for something else) is retired by that fire
// (Call). Freeing twice is a no-op. Under fault injection requests stay
// heap-managed (retry backstops may still reference them), so Free is a
// no-op there, and in the engine's reference mode, where a send's
// completion is an event too.
func (r *Rank) Free(req *Request) {
	if r.comm.inj != nil || r.eng().Reference() || req == nil || req.freed != nil {
		return
	}
	req.freed = r
	if !req.firing {
		r.putReq(req)
	}
}

// RankID returns this endpoint's rank number.
func (r *Rank) RankID() int { return r.rank }

// eng returns the engine owning this rank.
func (r *Rank) eng() *sim.Engine { return r.comm.engs[r.rank] }

// Charge bills the rank's process p for d of MPE work: request posts here,
// the scheduler's packs, polls and copies. Nothing outside the rank
// observes the interim, so it is a lazy charge on the process's clock
// (sim.Process.Charge); under fault injection, where resends and backstop
// timers act on the clock, every charge synchronises.
func (r *Rank) Charge(p *sim.Process, d sim.Time) {
	if r.comm.inj != nil {
		p.Sleep(d)
		return
	}
	p.Charge(d)
}

// sendCall schedules c on dst's engine after delay of this rank's virtual
// time — directly when both ranks share an engine, as batched cross-shard
// mail otherwise. The delay is a wire time, which core guarantees is at
// least the shard-pair lookahead for every cross-shard rank pair, so the
// staged item always clears the destination's window end. Taking a Caller
// (the message envelope itself) keeps the whole path allocation-free.
func (r *Rank) sendCall(dst int, delay sim.Time, c sim.Caller) {
	se, de := r.eng(), r.comm.engs[dst]
	if se == de {
		se.CallAfter(delay, c)
		return
	}
	r.comm.shards.PostCall(se, de, se.Now()+delay, c)
}

type message struct {
	dst               *Rank
	src, tag          int
	bytes             int64
	payload           []float64
	sentAt, arrivesAt sim.Time
	// seq identifies the logical transmission for duplicate suppression;
	// 0 when no injector is attached.
	seq int64
}

// Call delivers the message at its destination: the envelope is its own
// wire-arrival Caller, so a send schedules no closure. Envelopes are
// freelist-managed per rank (getMsg/putMsg) and recycled once consumed.
func (m *message) Call() { m.dst.deliver(m) }

// Request is the handle of a non-blocking operation.
type Request struct {
	sig sim.Signal
	reqState
}

type reqState struct {
	isSend  bool
	src     int // sends: destination; receives: expected source
	tag     int
	payload []float64 // receives: filled on match

	// decided: doneAt and sentAt are final and every Test is arithmetic
	// on them — a send with no injector, a receive paired with its message
	// on one engine. matched: a receive delivered by an event, a
	// fault-plane send once transmitted; doneAt is then final too.
	decided, matched bool
	doneAt, sentAt   sim.Time
	firing           bool  // a fire of sig is scheduled (Call)
	freed            *Rank // the pool that takes it: set by Free, kept while pooled

	// Fault-plane state for dropped sends awaiting retransmission.
	pending    *sendState      // non-nil while the last transmission was lost
	retryEvent sim.EventHandle // autonomous backstop resend
	retryAfter sim.Time        // earliest Test/Wait-driven resend time
}

// sendState is everything needed to retransmit a dropped send.
type sendState struct {
	dst, tag int
	payload  []float64
	bytes    int64
	seq      int64
	attempt  int
}

// Call fires the request's signal: a Request is its own Caller for the
// fire an Isend schedules when it pairs a receive whose owner is parked on
// it (Isend, Watch). A request its owner freed before this event ran
// retires now.
func (q *Request) Call() {
	q.firing = false
	q.sig.Fire()
	if r := q.freed; r != nil {
		r.putReq(q)
	}
}

// Payload returns the received data (nil for sends, timing-only transfers,
// or before completion).
func (q *Request) Payload() []float64 { return q.payload }

// Isend posts a non-blocking send of payload (may be nil) with the given
// on-wire size to rank dst with the given tag. The calling process is
// charged the posting cost. The send completes locally once the data has
// left the sender (one wire time), which with no injector is decided here.
// Under an injector, and in the engine's reference mode
// (sim.Engine.SetReference), every send goes down the fault plane's path
// instead (transmit): an event delivers the message and another completes
// the send.
// When both ranks share an engine the message pairs with the destination's
// first posted receive for (src, tag) or waits on its inflight list for
// one (see Irecv), and no event is scheduled, unless the paired receive's
// owner is parked on it: then its signal fires at the arrival, issued at
// the sender's clock. Across engines the delivery is scheduled from the
// sender's clock.
func (r *Rank) Isend(p *sim.Process, dst, tag int, payload []float64, bytes int64) *Request {
	if bytes < 0 {
		panic("mpisim: negative message size")
	}
	r.Charge(p, sim.Time(r.comm.params.MPIPostCost))
	now := r.eng().Now()
	wire := sim.Time(r.comm.params.MessageTimeBetween(r.rank, dst, bytes))
	req := r.getReq()
	req.isSend, req.src, req.tag = true, dst, tag
	req.sig.Init(r.eng(), "send")
	r.BytesSent += bytes
	r.MsgsSent++

	if r.comm.inj != nil || r.eng().Reference() {
		// Transmission seqs are rank-local (disambiguated by the rank in
		// the high bits) so concurrent shards never contend on a counter.
		r.sendSeq++
		r.transmit(req, &sendState{dst: dst, tag: tag, payload: payload,
			bytes: bytes, seq: int64(r.rank+1)<<32 | r.sendSeq, attempt: 1})
		return req
	}

	req.decided, req.sentAt, req.doneAt = true, now, now+wire
	m := message{dst: r.comm.Rank(dst), src: r.rank, tag: tag, bytes: bytes,
		payload: payload, sentAt: now, arrivesAt: now + wire}
	if d := m.dst; r.comm.engs[dst] == r.eng() {
		if i := slices.IndexFunc(d.recvs, m.matches); i >= 0 {
			q := d.recvs[i]
			d.recvs = slices.Delete(d.recvs, i, i+1)
			d.pair(q, &m)
			if q.sig.Waiting() {
				q.firing = true
				r.eng().CallAfter(wire, q)
			}
		} else {
			d.inflight = append(d.inflight, m)
		}
	} else {
		env := r.getMsg()
		*env = m
		r.sendCall(dst, wire, env)
	}
	r.probes.MsgSent(now, bytes, now+wire)
	return req
}

// maxSendAttempts bounds retransmission: the fate draw on the final attempt
// is forced to deliver, so a send can be delayed arbitrarily but never lost
// forever (the substrate models transient faults, not partitions).
const maxSendAttempts = 6

// transmit performs one on-wire attempt of a send under fault injection,
// or of every send in the engine's reference mode, where no fault is drawn.
func (r *Rank) transmit(req *Request, st *sendState) {
	c := r.comm
	now := r.eng().Now()
	wire := sim.Time(c.params.MessageTimeBetween(r.rank, st.dst, st.bytes))
	var drop, dup, delay, degrade bool
	if c.inj != nil {
		drop, dup, delay, degrade = c.inj.MsgFate(r.rank)
	}
	if st.attempt >= maxSendAttempts {
		drop = false
	}
	if delay {
		wire *= sim.Time(faults.DelayFactor)
		c.mark(r.rank, trace.KindFault, "msg-delay", st)
	}
	if degrade {
		wire *= sim.Time(faults.DegradeFactor)
		c.mark(r.rank, trace.KindFault, "msg-degrade", st)
	}

	if drop {
		// Lost on the wire: the send stays incomplete, and retransmission
		// is driven by the sender's Test/Wait progression (with an
		// autonomous backstop so a rank blocked elsewhere still recovers).
		c.mark(r.rank, trace.KindFault, "msg-drop", st)
		req.pending = st
		req.retryAfter = now + 2*wire
		req.retryEvent = r.eng().Schedule(4*wire, func() { r.resend(req) })
		return
	}

	req.matched = true
	req.doneAt = now + wire
	r.eng().CallAfter(wire, &req.sig)
	m := r.getMsg()
	*m = message{dst: c.Rank(st.dst), src: r.rank, tag: st.tag, bytes: st.bytes,
		payload: st.payload, arrivesAt: now + wire, seq: st.seq}
	r.sendCall(st.dst, wire, m)
	r.probes.MsgSent(now, st.bytes, now+wire)
	if dup {
		// A duplicate of the same transmission lands a little later; the
		// receiver suppresses it by sequence number.
		c.mark(r.rank, trace.KindFault, "msg-dup", st)
		d := r.getMsg()
		*d = *m
		d.arrivesAt = now + wire*3/2
		r.sendCall(st.dst, wire*3/2, d)
		r.probes.MsgSent(now, st.bytes, now+wire*3/2)
	}
}

// resend retransmits a dropped send. Idempotent: once the request has a
// successful transmission in flight it does nothing, so the Test-driven and
// backstop paths can race harmlessly.
func (r *Rank) resend(req *Request) {
	if req.matched || req.pending == nil {
		return
	}
	st := req.pending
	req.pending = nil
	req.retryEvent = sim.EventHandle{}
	st.attempt++
	r.Resends++
	r.comm.mark(r.rank, trace.KindRecovery, "msg-resend", st)
	r.transmit(req, st)
}

// mark emits a zero-duration fault-plane marker of kind (KindFault or
// KindRecovery) and bumps the flight recorder's matching per-rank counter.
// It runs on the faulting rank's engine, so the marker carries that rank's
// clock.
func (c *Comm) mark(rank int, kind trace.Kind, name string, st *sendState) {
	now := c.engs[rank].Now()
	if kind == trace.KindFault {
		c.ranks[rank].probes.Fault(now)
	} else {
		c.ranks[rank].probes.Recovery(now)
	}
	if c.rec == nil {
		return
	}
	c.rec.Add(trace.Event{Rank: rank, Step: -1, Kind: kind,
		Name:  fmt.Sprintf("%s dst=%d tag=%d try=%d", name, st.dst, st.tag, st.attempt),
		Start: now, End: now})
}

// Irecv posts a non-blocking receive for a message from src with the given
// tag. The calling process is charged the posting cost. Matching follows
// posting order for identical (src, tag) pairs (see the package doc).
//
// Irecv claims a delivered message first, then pairs with one on the wire
// from this engine, without meeting the calendar. The pairing is the same
// in either interleaving — per (src, tag), the k-th receive posted takes
// the k-th message — and so is every later observation: a message claimed
// from the inflight list completes the receive at its arrival, which may
// lie before the Irecv's clock, where a delivered one completes it at the
// Irecv's clock; every Test compares doneAt with a clock after the Irecv.
func (r *Rank) Irecv(p *sim.Process, src, tag int) *Request {
	r.Charge(p, sim.Time(r.comm.params.MPIPostCost))
	req := r.getReq()
	req.src, req.tag = src, tag
	req.sig.Init(r.eng(), "recv")
	if i := slices.IndexFunc(r.unexpected, req.matches); i >= 0 {
		r.complete(req, r.unexpected[i])
		r.unexpected = slices.Delete(r.unexpected, i, i+1)
		return req
	}
	for i := range r.inflight {
		if m := &r.inflight[i]; req.matches(m) {
			r.pair(req, m)
			r.inflight = slices.Delete(r.inflight, i, i+1)
			return req
		}
	}
	r.recvs = append(r.recvs, req)
	return req
}

// matches reports whether receive q takes message m (m.matches: converse).
func (q *Request) matches(m *message) bool { return q.src == m.src && q.tag == m.tag }
func (m *message) matches(q *Request) bool { return q.matches(m) }

// pair completes receive q with message m, still on the wire from this
// engine: q knows its arrival, the sender's clock at the post and the
// payload, and the message counts as received.
func (r *Rank) pair(q *Request, m *message) {
	q.decided = true
	q.doneAt, q.sentAt, q.payload = m.arrivesAt, m.sentAt, m.payload
	r.BytesReceived += m.bytes
	r.MsgsReceived++
}

// deliver matches a message arriving across engines or under faults
// against posted receives. It runs on the receiving rank's engine; consumed
// envelopes retire into this rank's freelist (unmatched ones wait on the
// unexpected queue and retire when a receive claims them).
func (r *Rank) deliver(m *message) {
	if r.comm.inj != nil {
		// Suppress duplicate deliveries of the same logical transmission.
		if r.seen[m.seq] {
			r.DupsDiscarded++
			r.putMsg(m)
			return
		}
		if r.seen == nil {
			r.seen = map[int64]bool{}
		}
		r.seen[m.seq] = true
	}
	for i, req := range r.recvs {
		if req.src == m.src && req.tag == m.tag {
			r.recvs = append(r.recvs[:i], r.recvs[i+1:]...)
			r.complete(req, m)
			return
		}
	}
	r.unexpected = append(r.unexpected, m)
}

// complete finishes a receive at the delivery instant or a later Irecv's.
func (r *Rank) complete(req *Request, m *message) {
	req.matched = true
	req.payload = m.payload
	req.doneAt = r.eng().Now()
	req.sig.Fire()
	r.BytesReceived += m.bytes
	r.MsgsReceived++
	r.putMsg(m)
}

// Test checks a request for completion, charging the calling process the
// per-test cost. It reports whether the operation has finished.
//
// A decided request is answered with a lazy charge (Charge) by its doneAt
// and sentAt alone. In the engine's reference mode the delivery event that
// completes it has the calendar key (doneAt, sentAt, its sequence number
// at the post), and the synchronising test's wake-up the key (end, clock,
// a number taken later), where clock is the caller's clock and end =
// clock + the test cost: the message has arrived by the test's return
// exactly when doneAt < end, or doneAt == end and sentAt <= clock. The
// premise fails at one tie: a tester that reached clock on a wake-up
// issued before the one that brought the sender to sentAt == clock takes
// the earlier number, which needs a test cost at or above a wire time
// (DESIGN §3, "Ties"). A send's own sentAt is at or before its owner's
// clock, so its answer is doneAt <= end.
//
// Any other request completes when an event runs, so the charge
// synchronises and the caller meets the calendar before it looks, unless
// the answer is already decided: true for a request matched by the
// caller's clock (matched never reverts), false for one whose fixed doneAt
// falls strictly after the test ends. A receive that pairs while the test
// sleeps was posted after the wake-up was scheduled, so its tie goes the
// other way: sentAt must be strictly before clock.
func (r *Rank) Test(p *sim.Process, req *Request) bool {
	cost := sim.Time(r.comm.params.MPITestCost)
	clock, end := p.Now(), p.Now()+cost
	r.TestCalls++
	if req.decided {
		r.Charge(p, cost)
		return req.doneAt < end || req.doneAt == end && req.sentAt <= clock
	}
	if done := req.matched && req.doneAt <= clock; done || req.doneAt > end {
		r.Charge(p, cost)
		return done
	}
	p.Sleep(cost)
	if req.decided {
		return req.doneAt < end || req.doneAt == end && req.sentAt < clock
	}
	if r.comm.inj != nil && req.isSend && req.pending != nil && end >= req.retryAfter {
		// Host attention progresses the library: a send whose transmission
		// was lost is retried here, ahead of the autonomous backstop.
		if req.retryEvent.Cancel() {
			r.resend(req)
		}
	}
	return req.matched && req.doneAt <= end
}

// Watch prepares a park of p, the owner of req, on req (sim.Process.Park),
// after p has met the calendar: a decided request lowers *until to its
// doneAt, and any other registers p on the request's signal, which its
// completion fires — the delivery across engines or under faults, or, for
// a receive still waiting for its send on one engine, the fire the pairing
// Isend schedules at the arrival.
func (r *Rank) Watch(p *sim.Process, req *Request, until *sim.Time) {
	if req.decided {
		*until = min(*until, req.doneAt)
		return
	}
	req.sig.Notify(p)
}

// ---- Collectives ----

// ReduceOp is a reduction operator.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

type collective struct {
	op      ReduceOp
	arrived int
	read    int           // ranks that have taken the result
	contrib []float64     // staged per-rank contributions
	sigs    []*sim.Signal // per-rank completion signal, on the rank's engine
	lastAt  sim.Time      // latest virtual arrival
	result  float64
}

// Allreduce combines x across all ranks with op and returns the result,
// blocking until every rank has contributed. Every rank must call
// collectives in the same order. The modelled cost is the software base
// cost plus a 2*ceil(log2(P)) latency tree after the last arrival.
//
// Contributions are staged per rank and reduced in rank order once the
// last rank arrives, and each rank's completion fires on its own engine —
// under sharding through the barrier mailbox in rank order (tagged mail),
// so neither the float reduction order nor the wake order depends on
// which shard's contribution happened to land last in wall-clock time.
func (r *Rank) Allreduce(p *sim.Process, x float64, op ReduceOp) float64 {
	c := r.comm
	idx := r.nextColl
	r.nextColl++
	p.Sleep(sim.Time(c.params.ReduceBaseCost))

	c.collMu.Lock()
	coll := c.collectives[idx]
	if coll == nil {
		coll = &collective{op: op,
			contrib: make([]float64, c.Size()),
			sigs:    make([]*sim.Signal, c.Size())}
		c.collectives[idx] = coll
	}
	if coll.op != op {
		c.collMu.Unlock()
		panic("mpisim: mismatched collective operations across ranks")
	}
	coll.contrib[r.rank] = x
	coll.sigs[r.rank] = sim.NewSignal(r.eng(), "allreduce")
	if now := r.eng().Now(); now > coll.lastAt {
		coll.lastAt = now
	}
	coll.arrived++
	if coll.arrived == c.Size() {
		acc := coll.contrib[0]
		for _, v := range coll.contrib[1:] {
			switch op {
			case OpSum:
				acc += v
			case OpMax:
				acc = math.Max(acc, v)
			case OpMin:
				acc = math.Min(acc, v)
			}
		}
		coll.result = acc
		levels := 0
		for 1<<levels < c.Size() {
			levels++
		}
		delay := sim.Time(2*float64(levels)*c.params.LinkLatency + c.params.ReduceBaseCost)
		fireAt := coll.lastAt + delay
		if c.shards == nil {
			// Serial: the detecting rank executes at lastAt, the latest
			// arrival. Fire every rank's signal then, in rank order.
			for q := range coll.sigs {
				r.eng().CallAfter(delay, coll.sigs[q])
			}
		} else {
			// Sharded: the wall-clock-last contributor is nondeterministic,
			// so the fires travel as tagged barrier mail keyed by
			// (fireAt, lastAt, collective, rank) — injected in the same
			// order whichever shard posts them. The fire lies at least a
			// full tree latency past every shard's window, so it is never
			// late (delay >= 2*LinkLatency > lookahead).
			for q := range coll.sigs {
				c.shards.PostTagged(r.eng(), c.engs[q], fireAt, coll.lastAt,
					uint64(idx)*uint64(c.Size())+uint64(q), coll.sigs[q])
			}
		}
	}
	sig := coll.sigs[r.rank]
	c.collMu.Unlock()
	sig.Wait(p)
	c.collMu.Lock()
	result := coll.result
	coll.read++
	if coll.read == c.Size() {
		delete(c.collectives, idx)
	}
	c.collMu.Unlock()
	return result
}
