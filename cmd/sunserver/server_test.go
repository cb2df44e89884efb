package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/faults"
	"sunuintah/internal/runner"
)

func newTestServer(t *testing.T) (*httptest.Server, *runner.Pool) {
	t.Helper()
	pool, err := runner.New(runner.Config{
		Workers: 2,
		Exec:    experiments.Exec,
		Cache:   runner.NewMemoryCache(0),
		Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := experiments.NewSweepWithPool(experiments.Options{Steps: 1}, pool)
	ts := httptest.NewServer(newServer(context.Background(), pool, sweep, serverConfig{steps: 1}).handler())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return ts, pool
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// TestRunFunctionalCaseEndToEnd exercises the acceptance path: POST /run
// with a small functional-mode case, then poll GET /jobs/{id} until the
// verified result arrives.
func TestRunFunctionalCaseEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	body := `{"cells":"32x32x64","layout":"2x2x1","cgs":2,"variant":"acc.async","steps":2,"functional":true}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /run status = %d", resp.StatusCode)
	}
	id := accepted["id"]
	if id == "" {
		t.Fatalf("no job id in %v", accepted)
	}

	deadline := time.Now().Add(30 * time.Second)
	var job apiJob
	for {
		if code := getJSON(t, ts.URL+"/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s status = %d", id, code)
		}
		if job.State == runner.StateDone || job.State == runner.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != runner.StateDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Result == nil || !job.Result.Feasible || job.Result.Sim == nil {
		t.Fatalf("job result = %+v", job.Result)
	}
	if job.Result.Sim.Steps != 2 {
		t.Errorf("steps = %d, want 2", job.Result.Sim.Steps)
	}
	if job.Result.Sim.PerStep <= 0 {
		t.Errorf("per-step time = %v", job.Result.Sim.PerStep)
	}

	// The same spec again is a cache hit serving the identical result.
	resp2, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted2 map[string]string
	json.NewDecoder(resp2.Body).Decode(&accepted2)
	resp2.Body.Close()
	var job2 apiJob
	for {
		getJSON(t, ts.URL+"/jobs/"+accepted2["id"], &job2)
		if job2.State == runner.StateDone || job2.State == runner.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cached rerun did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job2.State != runner.StateDone || job2.Result.Sim.PerStep != job.Result.Sim.PerStep {
		t.Fatalf("cached rerun differs: %+v", job2.Result)
	}

	// /metrics serves Prometheus text; after the identical resubmission the
	// mirrored pool counters must show the cache hit.
	body2, contentType := getMetrics(t, ts.URL)
	if !strings.HasPrefix(contentType, "text/plain") {
		t.Errorf("metrics Content-Type = %q, want text/plain", contentType)
	}
	if v := promValue(t, body2, `sunserver_pool_jobs_total{state="cache_hits"}`); v < 1 {
		t.Errorf("cache_hits = %v, want >= 1 after identical resubmission", v)
	}
	if v := promValue(t, body2, `sunserver_info{name="cache_hit_ratio"}`); v <= 0 {
		t.Errorf("cache hit ratio = %v, want > 0", v)
	}
	if !strings.Contains(body2, "# TYPE sunserver_http_requests_total counter") {
		t.Errorf("metrics missing http_requests_total TYPE line:\n%s", body2)
	}
	if !strings.Contains(body2, "sunserver_http_request_duration_seconds_bucket") {
		t.Errorf("metrics missing request-duration histogram buckets")
	}
}

// getMetrics fetches /metrics and returns body and Content-Type.
func getMetrics(t *testing.T, base string) (string, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// promValue extracts one sample value from a Prometheus text body.
func promValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, sample+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, sample+" "), "%g", &v); err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %q not found in:\n%s", sample, body)
	return 0
}

// TestDefaultFaultPlanApplied runs a chaotic case end to end through the
// HTTP API: the server's -faults plan is attached to specs that omit one,
// the run goes through checkpoint/restart, and the result reports it.
func TestDefaultFaultPlanApplied(t *testing.T) {
	pool, err := runner.New(runner.Config{
		Workers: 2,
		Exec:    experiments.Exec,
		Cache:   runner.NewMemoryCache(0),
		Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := experiments.NewSweepWithPool(experiments.Options{Steps: 2}, pool)
	plan := &faults.Plan{Seed: 1, CrashAtStep: 3}
	ts := httptest.NewServer(newServer(context.Background(), pool, sweep, serverConfig{steps: 2, faults: plan}).handler())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})

	body := `{"cells":"64x64x128","layout":"2x2x2","cgs":2,"variant":"acc.async","steps":4}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted map[string]string
	json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /run status = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	var job apiJob
	for {
		getJSON(t, ts.URL+"/jobs/"+accepted["id"], &job)
		if job.State == runner.StateDone || job.State == runner.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s", job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != runner.StateDone {
		t.Fatalf("chaotic job failed: %s", job.Error)
	}
	if job.Spec.Faults == nil || job.Spec.Faults.CrashAtStep != 3 {
		t.Fatalf("default fault plan not applied to spec: %+v", job.Spec.Faults)
	}
	sim := job.Result.Sim
	if sim == nil || sim.Steps != 4 {
		t.Fatalf("chaotic run did not complete: %+v", sim)
	}
	rec := sim.Faults.Recovery
	if rec == nil || rec.Crashes != 1 || !rec.Recovered {
		t.Fatalf("expected one recovered crash, got %+v", rec)
	}
}

// TestRunRejectsInvalidFaultPlan: a fault plan that arrives as JSON meets
// the rule faults.Parse applies to the CLIs' plans. A negative crash rank
// would force the slow path without ever crashing; a negative rate is no
// probability.
func TestRunRejectsInvalidFaultPlan(t *testing.T) {
	ts, _ := newTestServer(t)
	for key, plan := range map[string]string{
		"crash-rank": `{"crashAtStep":1,"crashRank":-1}`,
		"drop":       `{"drop":-0.5}`,
	} {
		body := `{"cells":"8x8x8","cgs":1,"variant":"acc.async","steps":1,"faults":` + plan + `}`
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got.Error, key) {
			t.Errorf("POST %s: status %d, error %q; want 400 naming %s", body, resp.StatusCode, got.Error, key)
		}
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"cgs":1,"variant":"acc.async","steps":1}`,                          // no problem or cells
		`{"problem":"nope","cgs":1,"variant":"acc.async","steps":1}`,         // unknown problem
		`{"problem":"16x16x512","cgs":1,"variant":"warp9","steps":1}`,        // unknown variant
		`{"problem":"16x16x512","cgs":0,"variant":"acc.async","steps":1}`,    // bad CGs
		`{"problem":"16x16x512","cgs":1,"variant":"acc.async","bogus":true}`, // unknown field
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s status = %d, want 400", body, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestRunRejectsRemovedSpecField: a client still sending the spec field of
// the deleted Time-Warp engine, the removed shards knob or a fault plan's
// removed recovery key gets a 400 carrying the strict decoder's complaint,
// which names the field — not a silently ignored knob.
func TestRunRejectsRemovedSpecField(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, dir := range []string{"before-engine-removal", "before-shards-removal", "before-fault-policy-removal"} {
		request, err := os.ReadFile(filepath.Join("testdata", dir, "run_request.json"))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(request))
		dec.DisallowUnknownFields()
		unknown := dec.Decode(new(runner.Spec))
		if unknown == nil {
			t.Fatalf("%s request decodes cleanly: it no longer carries a removed field", dir)
		}

		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(request))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, unknown.Error()) {
			t.Fatalf("%s: status %d, error %q; want 400 with %q", dir, resp.StatusCode, body.Error, unknown)
		}
	}
}

func TestArtifactEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/artifacts/table4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /artifacts/table4 status = %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "acc_simd.async") {
		t.Errorf("table4 output missing variants: %q", out)
	}

	resp2, err := http.Get(ts.URL + "/artifacts/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact status = %d, want 404", resp2.StatusCode)
	}
}

// TestMethodNotAllowed checks that wrong-method requests on /run and /jobs
// answer 405 with an Allow header and a JSON error body.
func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/run", "POST"},
		{http.MethodDelete, "/run", "POST"},
		{http.MethodPost, "/jobs", "GET"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
		if body["error"] == "" {
			t.Errorf("%s %s: no JSON error body", c.method, c.path)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &out); code != http.StatusOK {
		t.Fatalf("GET /healthz status = %d", code)
	}
	if out["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", out["status"])
	}
}

// TestJobTraceDownload submits a spec with "trace": true and downloads the
// finished job's Chrome trace; a job without a trace answers 404.
func TestJobTraceDownload(t *testing.T) {
	ts, _ := newTestServer(t)

	body := `{"cells":"32x32x64","layout":"2x2x1","cgs":2,"variant":"acc.async","steps":2,"trace":true}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted map[string]string
	json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /run status = %d", resp.StatusCode)
	}
	id := accepted["id"]

	deadline := time.Now().Add(30 * time.Second)
	var job apiJob
	for {
		getJSON(t, ts.URL+"/jobs/"+id, &job)
		if job.State == runner.StateDone || job.State == runner.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s", job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != runner.StateDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Result.Sim.Obs == nil {
		t.Fatal("traced job has no flight-recorder report")
	}

	tr, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace status = %d", id, tr.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	// A job run without "trace": true has nothing to download.
	body2 := `{"cells":"32x32x64","layout":"2x2x1","cgs":2,"variant":"acc.async","steps":1}`
	resp2, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	var accepted2 map[string]string
	json.NewDecoder(resp2.Body).Decode(&accepted2)
	resp2.Body.Close()
	for {
		getJSON(t, ts.URL+"/jobs/"+accepted2["id"], &job)
		if job.State == runner.StateDone || job.State == runner.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("untraced job did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	tr2, err := http.Get(ts.URL + "/jobs/" + accepted2["id"] + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr2.Body.Close()
	if tr2.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job trace status = %d, want 404", tr2.StatusCode)
	}
}
