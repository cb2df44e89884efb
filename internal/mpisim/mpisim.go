// Package mpisim is a simulated MPI subset sufficient for the Uintah
// scheduler: non-blocking point-to-point sends and receives, persistent
// or one-shot, request testing, and blocking reductions.
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
// A message travels on a channel: one stream from a source rank to a
// destination rank. The compiled task graph numbers the streams between
// every pair of ranks (taskgraph.Edge.Chan); the scheduler makes one
// persistent request per stream end when it is built (SendInit, RecvInit)
// and starts each once a step (Start), as MPI_Send_init, MPI_Recv_init and
// MPI_Start do. The one-shot Isend and Irecv run the same code on a stream
// per (source, destination, tag). A channel's order is the matching rule,
// MPI's non-overtaking one: the k-th receive started on it takes the k-th
// message sent on it. A channel keeps, in place, a FIFO of started
// receives with no message yet and one of messages with no receive yet,
// and a request holds its channel, so no match scans or looks anything up.
//
// On a shared engine with no fault injector a message and its receive
// pair when the later of the two is started, so the receive knows its
// arrival while the message is on the wire. Across shards, under faults
// and in the engine's reference mode a message is delivered by an event
// whose envelope carries its channel, and matches there. The orders agree
// when a channel's messages arrive in send order: always for equal sizes,
// and for all scheduler traffic, whose sends complete — arrive — before
// they start again.
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

	// chans finds a stream's channel by its key (streamKey) when a request
	// is made; no message looks it up. A channel's contents are touched
	// only on its destination's engine.
	chans map[uint64]*channel

	// Collectives in flight, matched across ranks by call index; an entry
	// is released once every rank has read its result.
	collectives map[int]*collective
}

// streamKey packs a stream's ranks and number — the compiled Chan of a
// persistent request, the tag of a one-shot one — into a map key.
func streamKey(src, dst, n int, oneShot bool) uint64 {
	const lim = 1 << 21
	if uint(src) >= lim || uint(dst) >= lim || uint(n) >= lim {
		panic(fmt.Sprintf("mpisim: stream %d->%d number %d out of range", src, dst, n))
	}
	k := uint64(src)<<42 | uint64(dst)<<21 | uint64(n)
	if oneShot {
		k |= 1 << 63
	}
	return k
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
	c := &Comm{params: params, chans: map[uint64]*channel{}, collectives: map[int]*collective{}}
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

// channel returns the channel of stream n from src to dst, made on first
// use in dst's slab.
func (c *Comm) channel(src, dst, n int, oneShot bool) *channel {
	k := streamKey(src, dst, n, oneShot)
	if ch := c.chans[k]; ch != nil {
		return ch
	}
	d := c.Rank(dst)
	if len(d.slab) == cap(d.slab) {
		// A full slab stays where it is: its channels are pointed to.
		d.slab = make([]channel, 0, max(4, 2*cap(d.slab)))
	}
	d.slab = append(d.slab, channel{dst: d})
	ch := &d.slab[len(d.slab)-1]
	c.chans[k] = ch
	return ch
}

// Rank is one MPI process's endpoint.
type Rank struct {
	comm *Comm
	rank int

	// slab holds the latest channels into this rank; a full one is
	// replaced, not grown, so no channel moves.
	slab []channel

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
	sendSeq       int64 // rank-local transmission counter
	Resends       int64 // retransmissions of dropped messages
	DupsDiscarded int64 // duplicate deliveries suppressed

	// probes is this rank's flight-recorder hook set (nil = disabled).
	// Touched only from this rank's engine events, so sharding never
	// races on it.
	probes *obs.RankProbes

	// msgFree is this rank's envelope freelist, for messages delivered by
	// an event (across shards, under faults). A sender issues envelopes
	// from its own pool (on its own engine) and the receiver retires them
	// into its pool (on its engine) once delivered, so neither end ever
	// locks. A message between ranks on one engine needs no envelope: one
	// with no receive yet waits in its channel by value.
	msgFree []*message
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

// putMsg retires a delivered envelope into this rank's freelist.
func (r *Rank) putMsg(m *message) {
	*m = message{}
	r.msgFree = append(r.msgFree, m)
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

// channel is one stream of messages into rank dst. It is touched only on
// dst's engine: by dst's receives and deliveries, and by the sends of ranks
// sharing that engine. Receives and messages meet in order, so at most one
// of its FIFOs holds anything.
type channel struct {
	dst   *Rank
	recvs fifo[*Request] // started receives with no message yet
	msgs  fifo[message]  // messages with no receive yet

	// delivered is the fault plane's duplicate filter: the number of the
	// last transmission delivered here (numbers rise in send order). Only
	// a duplicate can arrive with a number at or below it: a send
	// completes when its message arrives, a persistent send starts again
	// only once complete, and one-shot sends on one stream must not
	// overlap under faults either; so originals arrive in send order, and
	// a duplicate lands after its original.
	delivered int64
}

// fifo is a ring buffer kept in place: push hands out the slot to fill,
// front is the oldest, drop clears and removes it. It doubles when full.
type fifo[T any] struct {
	buf     []T
	head, n int
}

func (f *fifo[T]) len() int { return f.n }

func (f *fifo[T]) push() *T {
	if f.n == len(f.buf) {
		buf := make([]T, max(1, 2*len(f.buf)))
		k := copy(buf, f.buf[f.head:])
		copy(buf[k:], f.buf[:f.head])
		f.buf, f.head = buf, 0
	}
	i := f.head + f.n
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.n++
	return &f.buf[i]
}

func (f *fifo[T]) front() *T { return &f.buf[f.head] }

func (f *fifo[T]) drop() {
	var zero T
	f.buf[f.head] = zero
	if f.head++; f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
}

// message is one transfer on channel ch: the envelope of one an event
// delivers (Call), or one with no receive yet, held in its channel's FIFO
// by value.
type message struct {
	ch                *channel
	payload           []float64
	bytes             int64
	sentAt, arrivesAt sim.Time
	// seq numbers the transmission for duplicate suppression (channel);
	// 0 off the fault plane's path (transmit).
	seq int64
	// delivered marks a message an event delivered: the receive that
	// claims it completes at the claim, not at the arrival.
	delivered bool
}

// Call delivers the message at its destination: the envelope is its own
// wire-arrival Caller, so a send schedules no closure. Envelopes are
// freelist-managed per rank (getMsg/putMsg) and recycled once delivered.
func (m *message) Call() { m.ch.dst.deliver(m) }

// Request is the handle of a non-blocking operation: persistent (SendInit,
// RecvInit), started once a step for the whole simulation, or one-shot
// (Isend, Irecv).
type Request struct {
	sig     sim.Signal
	ch      *channel  // the stream it sends on or receives from
	payload []float64 // receives: filled on match
	bytes   int64     // sends: the size on the wire

	// decided: doneAt and sentAt are final and every Test is arithmetic
	// on them — a send with no injector, a receive paired with its message
	// on one engine. matched: a receive delivered by an event, a
	// fault-plane send once transmitted; doneAt is then final too. A
	// request not yet started is matched.
	decided, matched bool
	doneAt, sentAt   sim.Time
	isSend           bool
	// firing: a fire of sig is scheduled (Call). stale counts the fires
	// of earlier incarnations still scheduled, which do nothing.
	firing bool
	stale  int32

	// pending is a fault-plane send's lost transmission, awaiting its
	// resend; nil otherwise.
	pending *sendState
}

// sendState is everything needed to retransmit a dropped send.
type sendState struct {
	dst, tag   int
	payload    []float64
	bytes      int64
	seq        int64
	attempt    int
	retryEvent sim.EventHandle // autonomous backstop resend
	retryAfter sim.Time        // earliest Test-driven resend time
}

// Call fires the request's signal: a Request is its own Caller for the
// fire that completes a fault-plane send, and for the one a send schedules
// when it pairs a receive whose owner is parked on it (startSend, Watch).
// A fire scheduled for an earlier incarnation does nothing: the owner saw
// that one complete and started the request again before it ran. A
// request's fires run in the order they were scheduled — a later
// incarnation's message left later, on the same channel at the same size —
// so the stale ones are the first.
func (q *Request) Call() {
	if q.stale > 0 {
		q.stale--
		return
	}
	q.firing = false
	q.sig.Fire()
}

// Payload returns the received data (nil for sends, timing-only transfers,
// or before completion).
func (q *Request) Payload() []float64 { return q.payload }

// SendInit makes req, a zero Request, a persistent send of bytes to rank
// dst on stream ch, the number the compiled graph gives it among this
// rank's streams to dst (taskgraph.Edge.Chan). Each Start sends one
// message; until the first, req tests complete.
func (r *Rank) SendInit(req *Request, dst, ch int, bytes int64) {
	r.initSend(req, r.comm.channel(r.rank, dst, ch, false), bytes)
}

// RecvInit makes req, a zero Request, a persistent receive from rank src
// on stream ch (see SendInit). Each Start receives the stream's next
// message.
func (r *Rank) RecvInit(req *Request, src, ch int) {
	req.ch, req.matched = r.comm.channel(src, r.rank, ch, false), true
}

func (r *Rank) initSend(req *Request, ch *channel, bytes int64) {
	if bytes < 0 {
		panic("mpisim: negative message size")
	}
	req.ch, req.isSend, req.bytes, req.matched = ch, true, bytes, true
}

// Isend posts a one-shot non-blocking send of payload (may be nil) with
// the given on-wire size to rank dst with the given tag, on the stream of
// (this rank, dst, tag) (see Start).
func (r *Rank) Isend(p *sim.Process, dst, tag int, payload []float64, bytes int64) *Request {
	req := new(Request)
	r.initSend(req, r.comm.channel(r.rank, dst, tag, true), bytes)
	r.Start(p, req, tag, payload)
	return req
}

// Irecv posts a one-shot non-blocking receive for a message from src with
// the given tag, on the stream of (src, this rank, tag): per (src, tag),
// the k-th receive posted takes the k-th message (see Start).
func (r *Rank) Irecv(p *sim.Process, src, tag int) *Request {
	req := &Request{ch: r.comm.channel(src, r.rank, tag, true), matched: true}
	r.Start(p, req, tag, nil)
	return req
}

// Start begins req's next incarnation, charging the calling process the
// posting cost: a send of payload (nil for timing-only transfers), which
// fault markers label with tag, or a receive, which ignores both. The
// previous incarnation must be complete: a receive still waiting for its
// message, or a send whose transmission was lost, panics.
func (r *Rank) Start(p *sim.Process, req *Request, tag int, payload []float64) {
	if !req.decided && !req.matched {
		panic("mpisim: Start of a request still in progress")
	}
	r.Charge(p, sim.Time(r.comm.params.MPIPostCost))
	if req.firing {
		req.firing = false
		req.stale++
	}
	req.decided, req.matched, req.doneAt, req.payload = false, false, 0, nil
	if req.isSend {
		req.sig.Init(r.eng(), "send")
		r.startSend(req, tag, payload)
	} else {
		req.sig.Init(r.eng(), "recv")
		r.startRecv(req)
	}
}

// startSend sends payload on req's channel. The send completes locally
// once the data has left the sender (one wire time), which with no
// injector is decided here. Under an injector, and in the engine's
// reference mode (sim.Engine.SetReference), every send goes down the fault
// plane's path instead (transmit): an event delivers the message and
// another completes the send. When both ranks share an engine the message
// pairs with the channel's first waiting receive or waits in the channel
// for one (see startRecv), and no event is scheduled, unless the paired
// receive's owner is parked on it: then its signal fires at the arrival,
// issued at the sender's clock. Across engines the delivery is scheduled
// from the sender's clock.
func (r *Rank) startSend(req *Request, tag int, payload []float64) {
	ch, dst := req.ch, req.ch.dst.rank
	r.BytesSent += req.bytes
	r.MsgsSent++
	if r.comm.inj != nil || r.eng().Reference() {
		r.sendSeq++
		r.transmit(req, &sendState{dst: dst, tag: tag, payload: payload,
			bytes: req.bytes, seq: r.sendSeq, attempt: 1})
		return
	}
	now := r.eng().Now()
	wire := sim.Time(r.comm.params.MessageTimeBetween(r.rank, dst, req.bytes))
	arrives := now + wire
	req.decided, req.sentAt, req.doneAt = true, now, arrives
	switch {
	case r.comm.engs[dst] != r.eng():
		env := r.getMsg()
		*env = message{ch: ch, payload: payload, bytes: req.bytes, sentAt: now, arrivesAt: arrives}
		r.sendCall(dst, wire, env)
	case ch.recvs.len() > 0:
		q := *ch.recvs.front()
		ch.recvs.drop()
		ch.dst.pair(q, payload, req.bytes, now, arrives)
		if q.sig.Waiting() {
			q.firing = true
			r.eng().CallAfter(wire, q)
		}
	default:
		*ch.msgs.push() = message{payload: payload, bytes: req.bytes, sentAt: now, arrivesAt: arrives}
	}
	r.probes.MsgSent(now, req.bytes, arrives)
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
		st.retryAfter = now + 2*wire
		st.retryEvent = r.eng().Schedule(4*wire, func() { r.resend(req) })
		return
	}

	req.matched = true
	req.doneAt = now + wire
	req.firing = true
	r.eng().CallAfter(wire, req)
	m := r.getMsg()
	*m = message{ch: req.ch, payload: st.payload, bytes: st.bytes, arrivesAt: now + wire, seq: st.seq}
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
	st.retryEvent = sim.EventHandle{}
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

// startRecv claims the channel's oldest message without meeting the
// calendar, or waits in the channel for the next. A message still on the
// wire from this engine pairs: the receive completes at its arrival, which
// may lie before the Start's clock. One an event delivered completes the
// receive at the Start's clock. The pairing is the same in either
// interleaving — the k-th receive started takes the k-th message — and so
// is every later observation: every Test compares doneAt with a clock
// after the Start.
func (r *Rank) startRecv(req *Request) {
	ch := req.ch
	if ch.msgs.len() == 0 {
		*ch.recvs.push() = req
		return
	}
	m := ch.msgs.front()
	if m.delivered {
		r.complete(req, m.payload, m.bytes)
	} else {
		r.pair(req, m.payload, m.bytes, m.sentAt, m.arrivesAt)
	}
	ch.msgs.drop()
}

// pair completes receive q with a message still on the wire from this
// engine: q knows its arrival, the sender's clock at the post and the
// payload, and the message counts as received.
func (r *Rank) pair(q *Request, payload []float64, bytes int64, sentAt, arrivesAt sim.Time) {
	q.decided = true
	q.doneAt, q.sentAt, q.payload = arrivesAt, sentAt, payload
	r.BytesReceived += bytes
	r.MsgsReceived++
}

// deliver matches a message an event delivers — across engines, under
// faults, in the reference mode — on its channel. It runs on this rank's
// engine and retires the envelope into this rank's freelist; a message
// with no receive yet waits in the channel by value.
func (r *Rank) deliver(m *message) {
	ch := m.ch
	if r.comm.inj != nil {
		if m.seq <= ch.delivered {
			r.DupsDiscarded++
			r.putMsg(m)
			return
		}
		ch.delivered = m.seq
	}
	if ch.recvs.len() > 0 {
		q := *ch.recvs.front()
		ch.recvs.drop()
		r.complete(q, m.payload, m.bytes)
	} else {
		w := ch.msgs.push()
		*w = *m
		w.delivered = true
	}
	r.putMsg(m)
}

// complete finishes a receive at the delivery instant or a later Start's.
func (r *Rank) complete(q *Request, payload []float64, bytes int64) {
	q.matched = true
	q.payload = payload
	q.doneAt = r.eng().Now()
	q.sig.Fire()
	r.BytesReceived += bytes
	r.MsgsReceived++
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
	if st := req.pending; r.comm.inj != nil && req.isSend && st != nil && end >= st.retryAfter {
		// Host attention progresses the library: a send whose transmission
		// was lost is retried here, ahead of the autonomous backstop.
		if st.retryEvent.Cancel() {
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
// send schedules at the arrival.
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
// which shard's contribution happened to be executed last.
func (r *Rank) Allreduce(p *sim.Process, x float64, op ReduceOp) float64 {
	c := r.comm
	idx := r.nextColl
	r.nextColl++
	p.Sleep(sim.Time(c.params.ReduceBaseCost))

	coll := c.collectives[idx]
	if coll == nil {
		coll = &collective{op: op,
			contrib: make([]float64, c.Size()),
			sigs:    make([]*sim.Signal, c.Size())}
		c.collectives[idx] = coll
	}
	if coll.op != op {
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
			// Sharded: which contributor executes last depends on the order
			// the shards run their windows, not on virtual time, so the
			// fires travel as tagged barrier mail keyed by
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
	coll.sigs[r.rank].Wait(p)
	coll.read++
	if coll.read == c.Size() {
		delete(c.collectives, idx)
	}
	return coll.result
}
