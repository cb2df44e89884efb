package obs

import (
	"sync"
	"testing"
)

func TestProgressBusDelivery(t *testing.T) {
	b := NewProgressBus()
	sub := b.Subscribe("t1", 4)
	b.Publish("t1", ProgressEvent{Rank: 0, Done: 1, Total: 2})
	b.Publish("t1", ProgressEvent{Rank: 1, Done: 2, Total: 2})
	e1, e2 := <-sub.C, <-sub.C
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs = %d, %d, want 1, 2", e1.Seq, e2.Seq)
	}
	if e1.Dropped != 0 || e2.Dropped != 0 {
		t.Fatalf("unexpected drops: %d, %d", e1.Dropped, e2.Dropped)
	}
	b.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Fatal("channel must be closed after Unsubscribe")
	}
	b.Unsubscribe(sub) // idempotent
}

// A full subscriber loses events instead of blocking the publisher, and
// the loss is accounted on the next delivered event.
func TestProgressBusSlowConsumerDrops(t *testing.T) {
	b := NewProgressBus()
	sub := b.Subscribe("t", 1)
	b.Publish("t", ProgressEvent{Done: 1}) // fills the ring
	b.Publish("t", ProgressEvent{Done: 2}) // dropped
	b.Publish("t", ProgressEvent{Done: 3}) // dropped
	first := <-sub.C
	if first.Seq != 1 || first.Dropped != 0 {
		t.Fatalf("first = %+v, want seq 1, no drops", first)
	}
	b.Publish("t", ProgressEvent{Done: 4})
	next := <-sub.C
	if next.Seq != 4 || next.Dropped != 2 {
		t.Fatalf("next = %+v, want seq 4 with 2 drops", next)
	}
	b.Unsubscribe(sub)
}

func TestProgressBusTopicsIsolatedAndNilSafe(t *testing.T) {
	var nilBus *ProgressBus
	nilBus.Publish("x", ProgressEvent{}) // no-op
	nilBus.Unsubscribe(nil)

	b := NewProgressBus()
	b.Publish("nobody", ProgressEvent{}) // cheap no-op, must not panic
	a := b.Subscribe("a", 2)
	if got := len(b.topics["a"].subs); got != 1 {
		t.Fatalf("subscribers(a) = %d, want 1", got)
	}
	b.Publish("b", ProgressEvent{Done: 9})
	select {
	case ev := <-a.C:
		t.Fatalf("topic leak: %+v", ev)
	default:
	}
	b.Unsubscribe(a)
	if _, ok := b.topics["a"]; ok {
		t.Fatal("topic a kept after its last subscriber left")
	}
}

// Concurrent publishers and a consumer that unsubscribes mid-stream: the
// race detector gates this path (Exec publishes from simulation
// goroutines while the SSE handler subscribes and drops out).
func TestProgressBusConcurrent(t *testing.T) {
	b := NewProgressBus()
	sub := b.Subscribe("hot", 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Publish("hot", ProgressEvent{Done: int64(i)})
			}
		}()
	}
	done := make(chan int)
	go func() {
		n := 0
		for range sub.C {
			n++
		}
		done <- n
	}()
	wg.Wait()
	b.Unsubscribe(sub) // closes the channel, ending the drain
	got := <-done
	// Publishing after the last unsubscribe is still a no-op.
	b.Publish("hot", ProgressEvent{})
	if got == 0 {
		t.Fatal("no events delivered under concurrent publish")
	}
}
