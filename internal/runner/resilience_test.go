package runner

import (
	"context"
	"errors"
	"testing"
	"time"

	"sunuintah/internal/faults"
)

func TestFaultPlanHash(t *testing.T) {
	base := Spec{Problem: "32x64x512", CGs: 4, Variant: "acc.async", Steps: 5}

	withZero := base
	withZero.Faults = &faults.Plan{Seed: 42} // all rates zero
	if withZero.Hash() != base.Hash() {
		t.Fatal("a zero fault plan must hash like no plan at all")
	}

	chaotic := base
	chaotic.Faults = faults.Default()
	if chaotic.Hash() == base.Hash() {
		t.Fatal("a non-zero fault plan must change the spec hash")
	}

	reseeded := base
	reseeded.Faults = faults.Default()
	reseeded.Faults.Seed = 99
	if reseeded.Hash() == chaotic.Hash() {
		t.Fatal("the fault seed must participate in the spec hash")
	}
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	p, err := New(Config{Workers: 2, Exec: func(ctx context.Context, spec Spec) (*Result, error) {
		time.Sleep(20 * time.Millisecond)
		return &Result{Feasible: true}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, p.Submit(Spec{Problem: "32x64x512", CGs: 1, Variant: "v", Steps: i + 1}))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown should drain, got %v", err)
	}
	for _, j := range jobs {
		if r, err := j.result, j.err; err != nil || r == nil {
			t.Fatalf("job %s not drained: %v", j.Spec, err)
		}
	}
	if j := p.Submit(Spec{Problem: "32x64x512", CGs: 1, Variant: "v", Steps: 99}); !errors.Is(j.err, ErrClosed) {
		t.Fatal("Submit after Shutdown should fail with ErrClosed")
	}
}

func TestShutdownDeadlineCancelsInFlightWork(t *testing.T) {
	sawCancel := make(chan struct{}, 1)
	p, err := New(Config{Workers: 1, Exec: func(ctx context.Context, spec Spec) (*Result, error) {
		<-ctx.Done() // a hung job that only yields to cancellation
		sawCancel <- struct{}{}
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	j := p.Submit(Spec{Problem: "32x64x512", CGs: 1, Variant: "v", Steps: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut-short shutdown should report the deadline, got %v", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown deadline did not cancel the in-flight attempt")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("hung job should fail with context.Canceled, got %v", err)
	}
}
