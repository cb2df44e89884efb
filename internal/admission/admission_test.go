package admission

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	if d := c.Admit(); !d.OK {
		t.Fatalf("nil controller rejected: %+v", d)
	}
	c.Done(1) // must not panic
	c.Reserve()
	if m := c.Metrics(); m != (Metrics{}) {
		t.Fatalf("nil metrics = %+v", m)
	}
}

func TestQueueFullAndRetryAfter(t *testing.T) {
	c := New(Config{MaxQueued: 2, MaxRunning: 1})
	for i := 0; i < 3; i++ {
		if d := c.Admit(); !d.OK {
			t.Fatalf("admit %d rejected: %+v", i, d)
		}
	}
	d := c.Admit()
	if d.OK || d.Reason != ReasonQueueFull {
		t.Fatalf("expected queue_full, got %+v", d)
	}
	if d.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v below 1s floor", d.RetryAfter)
	}

	// The Retry-After estimate scales with the observed exec-time EWMA:
	// after observing 10s executions, draining a 2-deep queue through one
	// worker should be priced near 10s x 3 (clamped at 300s).
	c.Done(10)
	c.Reserve()
	d = c.Admit()
	if d.OK {
		t.Fatal("still full, should reject")
	}
	if d.RetryAfter < 10*time.Second {
		t.Fatalf("Retry-After %v does not reflect 10s EWMA", d.RetryAfter)
	}

	// Releasing a slot readmits.
	c.Done(0)
	if d := c.Admit(); !d.OK {
		t.Fatalf("admit after release rejected: %+v", d)
	}
}

func TestConcurrentAdmitReleaseRace(t *testing.T) {
	c := New(Config{MaxQueued: 8, MaxRunning: 4})
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if d := c.Admit(); d.OK {
					admitted.Add(1)
					c.Done(0.001)
				}
			}
		}()
	}
	wg.Wait()
	if m := c.Metrics(); m.Outstanding != 0 {
		t.Fatalf("outstanding = %d after all released", m.Outstanding)
	}
	if admitted.Load() == 0 {
		t.Fatal("nothing admitted")
	}
}
