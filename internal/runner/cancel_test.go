package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// slowExec blocks until its context is cancelled or release is closed.
func slowExec(release <-chan struct{}) ExecFunc {
	return func(ctx context.Context, spec Spec) (*Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &Result{Feasible: true}, nil
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	p, err := New(Config{Workers: 1, Exec: slowExec(release)})
	if err != nil {
		t.Fatal(err)
	}
	// Close drains running jobs, so release must unblock them first:
	// deferred close(release) runs before deferred p.Close().
	defer p.Close()
	defer close(release)

	// One job occupies the single worker; the second stays queued.
	blocker := p.Submit(Spec{Cells: "1x1x1", CGs: 1, Variant: "a", Steps: 1})
	queued := p.Submit(Spec{Cells: "2x2x2", CGs: 1, Variant: "a", Steps: 1})

	if !p.Cancel(queued) {
		t.Fatal("Cancel of queued job reported not pending")
	}
	select {
	case <-queued.done:
	case <-time.After(time.Second):
		t.Fatal("canceled queued job did not finish")
	}
	if queued.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", queued.State())
	}
	if err := queued.err; !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if m := p.Metrics(); m.Canceled != 1 {
		t.Fatalf("canceled metric = %d", m.Canceled)
	}
	_ = blocker
}

func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	p, err := New(Config{Workers: 1, Exec: slowExec(release)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer close(release)

	j := p.Submit(Spec{Cells: "1x1x1", CGs: 1, Variant: "a", Steps: 1})
	// Wait until the job is actually running so the cancel goes through
	// the attempt-context path.
	deadline := time.Now().Add(2 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if !p.Cancel(j) {
		t.Fatal("Cancel of running job reported not pending")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if j.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.State())
	}

	// A finished job refuses further cancels, and new work still runs.
	if p.Cancel(j) {
		t.Fatal("Cancel of finished job reported pending")
	}
}

func TestCancelDoesNotPoisonWorkerOrCache(t *testing.T) {
	var mu sync.Mutex
	execs := 0
	exec := func(ctx context.Context, spec Spec) (*Result, error) {
		mu.Lock()
		execs++
		mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Result{Feasible: true}, nil
	}
	p, err := New(Config{Workers: 2, Exec: exec, Cache: NewMemoryCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	spec := Spec{Cells: "3x3x3", CGs: 1, Variant: "a", Steps: 1}
	j := p.Submit(spec)
	p.Cancel(j)
	<-j.done

	// The same spec resubmitted after a cancel executes fresh: a canceled
	// outcome must never have been cached.
	j2 := p.Submit(spec)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := j2.Wait(ctx)
	if err != nil {
		t.Fatalf("resubmit after cancel failed: %v", err)
	}
	if res == nil || !res.Feasible {
		t.Fatalf("resubmit result = %+v", res)
	}
}

func TestCancelEventEmitted(t *testing.T) {
	var mu sync.Mutex
	var kinds []EventType
	release := make(chan struct{})
	p, err := New(Config{
		Workers: 1,
		Exec:    slowExec(release),
		OnEvent: func(e Event) {
			mu.Lock()
			kinds = append(kinds, e.Type)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer close(release)

	blocker := p.Submit(Spec{Cells: "1x1x1", CGs: 1, Variant: "a", Steps: 1})
	queued := p.Submit(Spec{Cells: "2x2x2", CGs: 1, Variant: "a", Steps: 1})
	p.Cancel(queued)
	<-queued.done
	mu.Lock()
	var seen bool
	for _, k := range kinds {
		if k == EventCanceled {
			seen = true
		}
	}
	mu.Unlock()
	if !seen {
		t.Fatal("no EventCanceled emitted")
	}
	_ = blocker
}
