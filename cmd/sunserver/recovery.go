package main

import (
	"sort"

	"sunuintah/internal/jobstore"
	"sunuintah/internal/runner"
)

// recoverJobs replays the job store into the API surface: terminal jobs
// reappear in listings (done jobs regain their Result, when the
// content-addressed cache still holds it, the first time one is read —
// decoding a cache file per journal record here would hold back /healthz)
// and incomplete jobs are resubmitted to the pool — near-free when the disk
// cache is warm.
func (s *server) recoverJobs() {
	recs := s.store.Records()
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	if max := s.store.MaxID(); max > s.nextID {
		s.nextID = max
	}
	s.mu.Unlock()
	resumed := 0
	for _, rec := range recs {
		j := &apiJob{
			ID: rec.ID, Tenant: rec.Tenant, Spec: rec.Spec, Repeats: rec.Repeats,
			State: rec.State, Submitted: rec.Submitted, Finished: rec.Finished, Error: rec.Error,
		}
		if rec.Terminal() {
			j.resultInCache = rec.State == runner.StateDone && rec.Repeats <= 1 && s.cfg.cache != nil
			s.mu.Lock()
			s.jobs[j.ID] = j
			s.mu.Unlock()
			continue
		}
		j.State = runner.StateQueued
		j.admitted = true
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.mu.Unlock()
		// The previous incarnation admitted this job; reserve its slot so
		// recovered backlog counts against the admission window.
		s.adm.Reserve()
		s.startJob(j.ID, runner.Repeats(rec.Spec, rec.Repeats))
		resumed++
	}
	s.log.Info("job store recovered", "records", len(recs), "resumed", resumed)
}

// gcLocked enforces the terminal-job retention cap: oldest (lowest ID)
// terminal jobs are evicted from memory and dropped from the journal so
// neither grows without bound. Caller holds s.mu.
func (s *server) gcLocked() {
	terminal := make([]*apiJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		if jobstore.Terminal(j.State) {
			terminal = append(terminal, j)
		}
	}
	if len(terminal) <= s.retain {
		return
	}
	sort.Slice(terminal, func(i, k int) bool {
		return jobstore.NumericID(terminal[i].ID) < jobstore.NumericID(terminal[k].ID)
	})
	for _, j := range terminal[:len(terminal)-s.retain] {
		delete(s.jobs, j.ID)
		if err := s.store.Drop(j.ID); err != nil {
			s.log.Error("jobstore drop", "job", j.ID, "err", err)
		}
	}
}

// snapshot returns a copy of job id for a handler to read outside the lock,
// first fetching a recovered job's Result from the cache if that is still
// owed — under the lock, so a second reader never sees the job done but
// without the result the first is still decoding.
func (s *server) snapshot(id string) (apiJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return apiJob{}, false
	}
	if j.resultInCache {
		j.resultInCache = false
		if res, ok := s.cfg.cache.Get(j.Spec.Hash()); ok {
			j.Result = res
		}
	}
	return *j, true
}
