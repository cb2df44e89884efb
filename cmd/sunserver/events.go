package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/jobstore"
	"sunuintah/internal/obs"
	"sunuintah/internal/runner"
)

// Live progress streaming: GET /jobs/{id}/events serves a Server-Sent
// Events stream of a job's per-rank-step progress. Event types:
//
//	state    initial snapshot: {"id","state","spec"}
//	progress one rank finished one timestep (obs.ProgressEvent JSON)
//	dropped  this subscriber lost N events to backpressure
//	done     terminal state reached; the stream closes after this
//
// Keep-alive comments (": keep-alive") pace idle streams. The stream
// rides a bounded ring per subscriber: a slow consumer loses events —
// accounted in "dropped" frames — but never blocks the simulation or the
// publisher. The terminal transition is observed by the heartbeat poll,
// so "done" arrives within one heartbeat of the job finishing.

// progressTopic maps an accepted spec to the bus topic Exec publishes
// under: the stream follows the first of its runner.Repeats.
func progressTopic(spec runner.Spec) string {
	return runner.Repeats(spec, 1)[0].Hash()
}

// sseEvent writes one SSE frame and flushes it through to the client.
func sseEvent(w http.ResponseWriter, f http.Flusher, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	f.Flush()
	return nil
}

// sseState is the payload of "state" and "done" frames.
type sseState struct {
	ID    string          `json:"id"`
	State runner.JobState `json:"state"`
	Spec  string          `json:"spec"`
	Error string          `json:"error,omitempty"`
}

func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var cp apiJob
	if ok {
		cp = *j
	}
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	f, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// A live job's stream subscribes before its first frame, so no
	// progress window is missed and a client that has read "state" is
	// already subscribed. The heartbeat poll below catches a terminal
	// transition that raced the snapshot.
	terminal := jobstore.Terminal(cp.State)
	var sub *obs.ProgressSub
	if !terminal {
		bus := experiments.Progress()
		sub = bus.Subscribe(progressTopic(cp.Spec), 256)
		defer bus.Unsubscribe(sub)
	}
	if err := sseEvent(w, f, "state", sseState{ID: cp.ID, State: cp.State, Spec: cp.Spec.String()}); err != nil {
		return
	}
	if terminal {
		sseEvent(w, f, "done", sseState{ID: cp.ID, State: cp.State, Spec: cp.Spec.String(), Error: cp.Error})
		return
	}

	hb := s.cfg.heartbeat
	if hb <= 0 {
		hb = defaultHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	// writeProgress emits one delivered event, preceded by its loss
	// accounting when the ring dropped events since the last delivery.
	writeProgress := func(ev obs.ProgressEvent) error {
		if ev.Dropped > 0 {
			if err := sseEvent(w, f, "dropped", map[string]uint64{"dropped": ev.Dropped}); err != nil {
				return err
			}
		}
		return sseEvent(w, f, "progress", ev)
	}

	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			if writeProgress(ev) != nil {
				return
			}
		case <-ticker.C:
			s.mu.Lock()
			j, live := s.jobs[id]
			var st runner.JobState
			var errMsg string
			if live {
				st = j.State
				errMsg = j.Error
			}
			s.mu.Unlock()
			if !live || jobstore.Terminal(st) {
				// Terminal means the execution has returned, so every
				// progress event it published is already in the ring:
				// drain the residue so the ticker racing the delivery
				// channel cannot swallow the tail of the stream.
				for drained := false; !drained; {
					select {
					case ev, ok := <-sub.C:
						if !ok || writeProgress(ev) != nil {
							return
						}
					default:
						drained = true
					}
				}
				sseEvent(w, f, "done", sseState{ID: id, State: st, Spec: cp.Spec.String(), Error: errMsg})
				return
			}
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			f.Flush()
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// rootHandler wraps the route table with the per-request handler timeout,
// exempting the SSE route: http.TimeoutHandler's response writer does not
// implement http.Flusher, and an event stream legitimately outlives any
// per-request deadline. The stream bounds itself instead — it closes on
// terminal job state, client disconnect, or server shutdown.
func (s *server) rootHandler(timeout time.Duration) http.Handler {
	h := s.handler()
	timed := h
	if timeout > 0 {
		timed = http.TimeoutHandler(h, timeout, "request timed out\n")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet &&
			strings.HasPrefix(r.URL.Path, "/jobs/") && strings.HasSuffix(r.URL.Path, "/events") {
			h.ServeHTTP(w, r)
			return
		}
		timed.ServeHTTP(w, r)
	})
}
