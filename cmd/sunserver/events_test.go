package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/obs"
	"sunuintah/internal/runner"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	event string
	data  string
}

type sseReader struct{ sc *bufio.Scanner }

func newSSEReader(r io.Reader) *sseReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &sseReader{sc}
}

// next returns the next non-comment frame, or ok=false on stream end.
func (r *sseReader) next() (sseFrame, bool) {
	var f sseFrame
	have := false
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if have {
				return f, true
			}
		case strings.HasPrefix(line, "event: "):
			f.event, have = strings.TrimPrefix(line, "event: "), true
		case strings.HasPrefix(line, "data: "):
			f.data, have = strings.TrimPrefix(line, "data: "), true
		}
	}
	return sseFrame{}, false
}

// newSSEServer wires a server around exec with a fast heartbeat, serving
// through rootHandler with a short request timeout so the tests also prove
// the SSE route is exempt from http.TimeoutHandler.
func newSSEServer(t *testing.T, exec runner.ExecFunc) *httptest.Server {
	t.Helper()
	pool, err := runner.New(runner.Config{Workers: 1, Exec: exec, Cache: runner.NewMemoryCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	sweep := experiments.NewSweepWithPool(experiments.Options{Steps: 1}, pool)
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, pool, sweep, serverConfig{steps: 1, heartbeat: 5 * time.Millisecond})
	ts := httptest.NewServer(srv.rootHandler(100 * time.Millisecond))
	t.Cleanup(func() {
		ts.Close()
		cancel()
		pool.Close()
		srv.Drain()
	})
	return ts
}

func openStream(t *testing.T, base, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return resp
}

// The happy path: a running job streams its progress events and the
// stream closes with "done" when the job completes. The stream outlives
// the 100ms handler timeout, proving the TimeoutHandler exemption.
func TestJobEventsStreamsProgress(t *testing.T) {
	const n = 5
	release := make(chan struct{})
	exec := func(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
		}
		bus, topic := experiments.Progress(), spec.Hash()
		for i := 0; i < n; i++ {
			bus.Publish(topic, obs.ProgressEvent{
				Rank: 0, Step: i, Steps: n, Done: int64(i + 1), Total: n,
			})
		}
		return &runner.Result{Feasible: true, ExecSeconds: 0.01}, nil
	}
	ts := newSSEServer(t, exec)

	code, id, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, ""), "")
	if code != http.StatusAccepted {
		t.Fatalf("POST /run status = %d", code)
	}
	resp := openStream(t, ts.URL, id)
	rd := newSSEReader(resp.Body)

	first, ok := rd.next()
	if !ok || first.event != "state" {
		t.Fatalf("first frame = %+v, want state", first)
	}
	var st sseState
	if err := json.Unmarshal([]byte(first.data), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != id {
		t.Fatalf("state frame id = %q, want %q", st.ID, id)
	}

	// The stream subscribed before sending "state".
	time.Sleep(150 * time.Millisecond) // past the 100ms handler timeout
	close(release)

	progress, sawDone := 0, false
	var lastDone int64
	for {
		f, ok := rd.next()
		if !ok {
			break
		}
		switch f.event {
		case "progress":
			var ev obs.ProgressEvent
			if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
				t.Fatal(err)
			}
			progress++
			lastDone = ev.Done
		case "done":
			if err := json.Unmarshal([]byte(f.data), &st); err != nil {
				t.Fatal(err)
			}
			sawDone = true
		}
	}
	if progress != n || lastDone != n {
		t.Fatalf("progress frames = %d (last done %d), want %d", progress, lastDone, n)
	}
	if !sawDone || st.State != runner.StateDone {
		t.Fatalf("stream ended without done frame (sawDone=%v, state=%s)", sawDone, st.State)
	}
}

func TestJobEventsUnknownJob(t *testing.T) {
	ts := newSSEServer(t, instantExec)
	resp, err := http.Get(ts.URL + "/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// A job that is already terminal gets its snapshot and an immediate
// "done" — the stream closes without subscribing to anything.
func TestJobEventsTerminalJobClosesImmediately(t *testing.T) {
	ts := newSSEServer(t, instantExec)
	code, id, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, ""), "")
	if code != http.StatusAccepted {
		t.Fatalf("POST /run status = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	var job apiJob
	for {
		getJSON(t, ts.URL+"/jobs/"+id, &job)
		if job.State == runner.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp := openStream(t, ts.URL, id)
	rd := newSSEReader(resp.Body)
	var events []string
	for {
		f, ok := rd.next()
		if !ok {
			break
		}
		events = append(events, f.event)
	}
	if len(events) != 2 || events[0] != "state" || events[1] != "done" {
		t.Fatalf("terminal-job frames = %v, want [state done]", events)
	}
}

// Cancelling a followed job ends the stream with a terminal "done" frame
// within a heartbeat.
func TestJobEventsCancelClosesStream(t *testing.T) {
	release := make(chan struct{})
	ts := newSSEServer(t, gatedExec(release))
	defer close(release)

	code, id, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, ""), "")
	if code != http.StatusAccepted {
		t.Fatalf("POST /run status = %d", code)
	}
	resp := openStream(t, ts.URL, id)
	rd := newSSEReader(resp.Body)
	if f, ok := rd.next(); !ok || f.event != "state" {
		t.Fatalf("first frame = %+v, want state", f)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	var last sseFrame
	for {
		f, ok := rd.next()
		if !ok {
			break
		}
		last = f
	}
	if last.event != "done" {
		t.Fatalf("stream ended with %+v, want done", last)
	}
	var st sseState
	if err := json.Unmarshal([]byte(last.data), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != runner.StateCanceled && st.State != runner.StateFailed {
		t.Fatalf("done state = %s, want canceled/failed", st.State)
	}
}

// A consumer that never reads must not block the publisher: the exec-side
// publishing loop (50k events against a 256-slot ring) completes while
// the client holds the stream open unread, events beyond the ring are
// dropped, and the loss is reported in-band once delivery resumes.
func TestJobEventsSlowConsumerDropsWithoutBlocking(t *testing.T) {
	const burst = 50000
	release := make(chan struct{})
	burstDone := make(chan struct{})
	tail := make(chan struct{})
	exec := func(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
		}
		bus, topic := experiments.Progress(), spec.Hash()
		for i := 0; i < burst; i++ {
			bus.Publish(topic, obs.ProgressEvent{Step: i, Done: int64(i + 1), Total: burst})
		}
		close(burstDone)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tail:
		}
		for i := 0; i < 5; i++ {
			bus.Publish(topic, obs.ProgressEvent{Step: burst + i, Done: burst, Total: burst})
			time.Sleep(time.Millisecond)
		}
		return &runner.Result{Feasible: true, ExecSeconds: 0.01}, nil
	}
	ts := newSSEServer(t, exec)

	code, id, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, ""), "")
	if code != http.StatusAccepted {
		t.Fatalf("POST /run status = %d", code)
	}
	resp := openStream(t, ts.URL, id)
	rd := newSSEReader(resp.Body)
	if f, ok := rd.next(); !ok || f.event != "state" {
		t.Fatalf("first frame = %+v, want state", f)
	}
	close(release) // the stream subscribed before sending "state"

	// The client is not reading: the whole burst must still publish
	// promptly, because the bus drops instead of blocking.
	select {
	case <-burstDone:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a slow consumer")
	}

	// Drain in the background, give the handler time to empty the ring,
	// then let the tail publishes land with the accumulated drop count.
	frames := make(chan sseFrame, 1024)
	go func() {
		defer close(frames)
		for {
			f, ok := rd.next()
			if !ok {
				return
			}
			frames <- f
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(tail)

	progress, dropped, sawDone := 0, uint64(0), false
	for f := range frames {
		switch f.event {
		case "progress":
			progress++
		case "dropped":
			var d map[string]uint64
			if err := json.Unmarshal([]byte(f.data), &d); err != nil {
				t.Fatal(err)
			}
			dropped += d["dropped"]
		case "done":
			sawDone = true
		}
	}
	if progress == 0 {
		t.Fatal("no progress frames delivered")
	}
	if progress >= burst {
		t.Fatalf("slow consumer received all %d events; expected ring-bounded delivery", progress)
	}
	if dropped == 0 {
		t.Fatal("no dropped frame despite overflowing the subscriber ring")
	}
	if !sawDone {
		t.Fatal("stream did not close with done")
	}
}
