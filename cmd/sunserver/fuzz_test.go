package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sunuintah/internal/admission"
	"sunuintah/internal/experiments"
	"sunuintah/internal/runner"
)

// FuzzRunRequestBody sends arbitrary POST /run bodies to an in-process
// server on instantExec. The handler must never panic, must answer only
// 202, 400 or 429, must answer 400 to a body naming a removed spec field
// (the Time-Warp engine's "optimistic", the engine's "shards", a fault
// plan's fixed magnitudes and recovery policy) or carrying a fault plan
// that fails faults.Plan.Validate, and every 202 must name a job
// GET /jobs/{id} can read. The seed corpus lives in
// testdata/fuzz/FuzzRunRequestBody.
func FuzzRunRequestBody(f *testing.F) {
	pool, err := runner.New(runner.Config{Workers: 2, Exec: instantExec, Cache: runner.NewMemoryCache(0)})
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, pool, experiments.NewSweepWithPool(experiments.Options{Steps: 1}, pool), serverConfig{
		steps: 1,
		adm:   admission.New(admission.Config{MaxRunning: 2, MaxQueued: 8}),
	})
	h := srv.handler()
	f.Cleanup(func() {
		cancel()
		pool.Close()
		srv.Drain()
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		var fields map[string]json.RawMessage
		if json.Unmarshal(body, &fields) == nil && (fields["shards"] != nil || fields["optimistic"] != nil ||
			removedFaultKey(fields["faults"])) && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /run %q = %d, want 400 for a removed field", body, rec.Code)
		}
		var spec runner.Spec
		if json.Unmarshal(body, &spec) == nil && spec.Faults.Validate() != nil && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /run %q = %d, want 400 for an invalid fault plan", body, rec.Code)
		}
		switch rec.Code {
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("POST /run %q = %d, want 202, 400 or 429: %s", body, rec.Code, rec.Body)
		}
		var accepted struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil || accepted.ID == "" {
			t.Fatalf("202 body %q: id %q, %v", rec.Body, accepted.ID, err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+accepted.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d after a 202", accepted.ID, rec.Code)
		}
		var job apiJob
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID != accepted.ID {
			t.Fatalf("GET /jobs/%s body %q: id %q, %v", accepted.ID, rec.Body, job.ID, err)
		}
	})
}

// removedFaultKey reports whether a fault plan object names one of the
// magnitudes or recovery settings that are now constants of package faults.
func removedFaultKey(plan json.RawMessage) bool {
	var keys map[string]json.RawMessage
	if json.Unmarshal(plan, &keys) != nil {
		return false
	}
	for _, k := range []string{"delayFactor", "degradeFactor", "straggleFactor", "maxRestarts",
		"checkpointEvery", "checkpointCost", "restartCost", "deadlineFactor", "maxRetries", "unhealthyAfter"} {
		if keys[k] != nil {
			return true
		}
	}
	return false
}
