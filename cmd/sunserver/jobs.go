package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/jobstore"
	"sunuintah/internal/runner"
)

// runRequest is the POST /run body: a runner.Spec plus the paper's
// best-of-k repeat protocol for noisy specs.
type runRequest struct {
	runner.Spec
	// Repeats reruns a noisy spec with seeds 1..k and keeps the fastest
	// (ignored when Noise is 0).
	Repeats int `json:"repeats,omitempty"`
}

// maxRepeats bounds one request's best-of-k protocol: every repeat is a
// pool job, while admission counts the request once.
const maxRepeats = 64

// tenantOf extracts the request's tenant, recorded with the job and its
// journal entry: the X-Tenant header, or "default" when absent.
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return "default"
}

// handleRun accepts a spec, validates it, passes admission control, and
// returns a job id immediately; the simulation executes on the shared
// pool. Overload answers 429 with a Retry-After computed from the
// observed exec-time EWMA and the queue depth.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Steps <= 0 {
		req.Steps = s.steps
	}
	// The server's default fault plan applies to specs that don't bring
	// their own; an explicit all-zero plan opts a request out of it.
	if req.Faults == nil && !s.faults.Zero() {
		req.Faults = s.faults
	}
	if err := experiments.ValidateSpec(req.Spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Repeats > maxRepeats {
		s.writeError(w, http.StatusBadRequest, "repeats must be <= %d, got %d", maxRepeats, req.Repeats)
		return
	}
	specs := runner.Repeats(req.Spec, req.Repeats)

	tenant := tenantOf(r)
	if dec := s.adm.Admit(); !dec.OK {
		secs := int(math.Ceil(dec.RetryAfter.Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.admTotal.Inc(dec.Reason)
		s.writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":             fmt.Sprintf("overloaded: %s; retry in %ds", dec.Reason, secs),
			"reason":            dec.Reason,
			"retryAfterSeconds": secs,
		})
		return
	}
	s.admTotal.Inc("accepted")

	s.mu.Lock()
	s.nextID++
	j := &apiJob{
		ID:        fmt.Sprintf("j%d", s.nextID),
		Tenant:    tenant,
		Spec:      req.Spec,
		Repeats:   len(specs),
		State:     runner.StateQueued,
		Submitted: time.Now(),
		admitted:  true,
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()
	if err := s.store.Accept(jobstore.Record{
		ID: j.ID, Tenant: tenant, Spec: req.Spec, Repeats: len(specs),
		State: runner.StateQueued, Submitted: j.Submitted,
	}); err != nil {
		s.log.Error("jobstore accept", "job", j.ID, "err", err)
	}

	s.startJob(j.ID, specs)
	s.writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "status": "/jobs/" + j.ID})
}

// startJob submits a job's runner.Repeats set to the pool and spawns the
// collector — the shared path of fresh submissions and restart recovery.
// The paper's "best result is selected" protocol: all repeats up front,
// reduced by min in the background.
func (s *server) startJob(id string, specs []runner.Spec) {
	jobs := make([]*runner.Job, len(specs))
	for i, spec := range specs {
		jobs[i] = s.pool.Submit(spec)
	}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		j.State = runner.StateRunning
		j.poolJobs = jobs
	}
	s.mu.Unlock()
	if err := s.store.SetState(id, runner.StateRunning); err != nil {
		s.log.Error("jobstore state", "job", id, "err", err)
	}
	s.wg.Add(1)
	go s.collect(id, jobs)
}

// collect waits for a job's repeats under the server lifecycle context,
// then publishes the terminal state to the API, the journal and the
// admission controller. A shutdown mid-wait leaves the journal entry
// incomplete on purpose: the next incarnation resumes the job.
func (s *server) collect(id string, jobs []*runner.Job) {
	defer s.wg.Done()
	t0 := time.Now()
	results := make([]*runner.Result, len(jobs))
	var firstErr error
	for i, job := range jobs {
		res, err := job.Wait(s.ctx)
		if err != nil {
			if s.ctx.Err() != nil {
				return // shutting down; journal stays incomplete for recovery
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		results[i] = res
	}
	canceled := errorsIsCanceled(firstErr)
	if firstErr != nil && !canceled && errorsIsInterrupted(firstErr) {
		// The pool was torn down under the job (shutdown grace expired or
		// the pool closed). Not a verdict on the job itself: leave it
		// incomplete in the journal so a restart resumes it.
		return
	}
	wall := time.Since(t0).Seconds()
	now := time.Now()

	state := runner.StateDone
	errMsg := ""
	var final *runner.Result
	switch {
	case canceled:
		state = runner.StateCanceled
	case firstErr != nil:
		state = runner.StateFailed
		errMsg = firstErr.Error()
	default:
		final = runner.MinResult(results)
	}

	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.Finished = &now
	j.State = state
	j.Error = errMsg
	j.Result = final
	j.poolJobs = nil
	release := j.admitted
	j.admitted = false
	s.gcLocked()
	s.mu.Unlock()

	if err := s.store.Finish(id, state, now, errMsg); err != nil {
		s.log.Error("jobstore finish", "job", id, "err", err)
	}
	if release {
		// Feed the admission EWMA the job's execution cost: the recorded
		// exec time, capped by the observed wall time so cache hits (whose
		// Result carries the original run's cost) count as the near-zero
		// work they actually were.
		exec := 0.0
		if final != nil && final.ExecSeconds > 0 {
			exec = math.Min(final.ExecSeconds, wall)
		}
		s.adm.Done(exec)
	}
}

// errorsIsCanceled reports a user-initiated cancel (DELETE /jobs/{id}).
func errorsIsCanceled(err error) bool { return errors.Is(err, runner.ErrCanceled) }

// errorsIsInterrupted reports an error caused by tearing the pool down
// under the job rather than by the job itself: shutdown grace expiring
// (context.Canceled from the pool's base context) or a submit racing the
// pool close.
func errorsIsInterrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, runner.ErrClosed)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cp, ok := s.snapshot(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, cp)
}

// handleJobCancel aborts a pending job: queued repeats leave the pool
// immediately, running ones have their attempt context cancelled. The
// collector publishes the terminal "canceled" state; poll GET /jobs/{id}
// to observe it.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if jobstore.Terminal(j.State) {
		st := j.State
		s.mu.Unlock()
		s.writeError(w, http.StatusConflict, "job %q already %s", id, st)
		return
	}
	jobs := append([]*runner.Job(nil), j.poolJobs...)
	s.mu.Unlock()

	canceling := false
	for _, pj := range jobs {
		if s.pool.Cancel(pj) {
			canceling = true
		}
	}
	s.writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "canceling": canceling, "status": "/jobs/" + id})
}

// handleJobs lists job summaries (without the full results), sorted by
// numeric job ID so listings are stable across calls and map iterations.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		ID        string          `json:"id"`
		Tenant    string          `json:"tenant,omitempty"`
		Spec      string          `json:"spec"`
		State     runner.JobState `json:"state"`
		Submitted time.Time       `json:"submitted"`
	}
	s.mu.Lock()
	out := make([]summary, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, summary{ID: j.ID, Tenant: j.Tenant, Spec: j.Spec.String(), State: j.State, Submitted: j.Submitted})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		return jobstore.NumericID(out[i].ID) < jobstore.NumericID(out[k].ID)
	})
	s.writeJSON(w, http.StatusOK, out)
}
