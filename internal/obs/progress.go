package obs

import "sync"

// ProgressEvent is one live job-progress update: a rank finished a
// timestep. It is the payload of the SSE stream behind sunserver's
// GET /jobs/{id}/events.
type ProgressEvent struct {
	Seq            uint64  `json:"seq"`
	Rank           int     `json:"rank"`
	Step           int     `json:"step"`  // 0-based timestep just completed
	Steps          int     `json:"steps"` // timesteps in the current run segment
	Done           int64   `json:"done"`  // completed (rank, step) pairs this segment
	Total          int64   `json:"total"`
	VirtualSeconds float64 `json:"virtualSeconds"`
	// Dropped counts events this subscriber lost to backpressure since
	// its previous delivered event (slow-consumer drop, never blocking
	// the publisher).
	Dropped uint64 `json:"dropped,omitempty"`
}

// ProgressBus is a topic-keyed fan-out for ProgressEvents with bounded,
// non-blocking delivery: each subscriber owns a fixed-capacity channel
// (the ring buffer), and a publish that finds it full drops the event and
// accounts the loss on the subscriber — the running simulation never
// waits on a consumer. Topics are implicit: publishing to a topic with no
// subscribers is a cheap no-op, so the execution path can publish
// unconditionally. A nil bus is safe to publish to.
type ProgressBus struct {
	mu     sync.Mutex
	topics map[string]*progressTopic
}

type progressTopic struct {
	seq  uint64
	subs []*ProgressSub
}

// ProgressSub is one subscription. Receive from C; the channel is closed
// by Unsubscribe. Events arrive in publish order with Seq strictly
// increasing per topic (gaps mark drops, also counted in Dropped).
type ProgressSub struct {
	C       <-chan ProgressEvent
	ch      chan ProgressEvent
	topic   string
	dropped uint64 // guarded by the bus mutex
}

// NewProgressBus builds an empty bus.
func NewProgressBus() *ProgressBus {
	return &ProgressBus{topics: make(map[string]*progressTopic)}
}

// Subscribe attaches a subscriber to topic with a ring of buf events
// (<= 0 selects 64).
func (b *ProgressBus) Subscribe(topic string, buf int) *ProgressSub {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan ProgressEvent, buf)
	sub := &ProgressSub{C: ch, ch: ch, topic: topic}
	b.mu.Lock()
	tp := b.topics[topic]
	if tp == nil {
		tp = &progressTopic{}
		b.topics[topic] = tp
	}
	tp.subs = append(tp.subs, sub)
	b.mu.Unlock()
	return sub
}

// Unsubscribe detaches sub and closes its channel. Idempotent; nil-safe.
func (b *ProgressBus) Unsubscribe(sub *ProgressSub) {
	if b == nil || sub == nil {
		return
	}
	b.mu.Lock()
	if tp := b.topics[sub.topic]; tp != nil {
		for i, s := range tp.subs {
			if s == sub {
				tp.subs = append(tp.subs[:i], tp.subs[i+1:]...)
				close(sub.ch)
				break
			}
		}
		if len(tp.subs) == 0 {
			delete(b.topics, sub.topic)
		}
	}
	b.mu.Unlock()
}

// Publish stamps ev's Seq and delivers it to every subscriber of topic
// without blocking: a full subscriber drops the event and the loss is
// reported on that subscriber's next delivered event.
func (b *ProgressBus) Publish(topic string, ev ProgressEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	tp := b.topics[topic]
	if tp == nil || len(tp.subs) == 0 {
		b.mu.Unlock()
		return
	}
	tp.seq++
	ev.Seq = tp.seq
	for _, sub := range tp.subs {
		e := ev
		e.Dropped = sub.dropped
		select {
		case sub.ch <- e:
			sub.dropped = 0
		default:
			sub.dropped++
		}
	}
	b.mu.Unlock()
}
