package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sunuintah/internal/admission"
	"sunuintah/internal/experiments"
	"sunuintah/internal/jobstore"
	"sunuintah/internal/runner"
)

// instantExec completes immediately with a feasible result; the recorded
// exec time feeds the admission EWMA and the cache.
func instantExec(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &runner.Result{Feasible: true, ExecSeconds: 0.01}, nil
}

// gatedExec blocks every execution until release closes (or the attempt
// context is cancelled), holding the server at a controlled saturation.
func gatedExec(release <-chan struct{}) runner.ExecFunc {
	return func(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &runner.Result{Feasible: true, ExecSeconds: 0.01}, nil
		}
	}
}

// newRobustServer assembles a server around an arbitrary exec function so
// tests control saturation directly. The returned cancel tears down the
// collect-goroutine context (the test cleanup also runs it).
func newRobustServer(t *testing.T, exec runner.ExecFunc, workers int, cfg serverConfig) (*httptest.Server, *server, *runner.Pool) {
	t.Helper()
	cache := cfg.cache
	if cache == nil {
		cache = runner.NewMemoryCache(0)
		cfg.cache = cache
	}
	pool, err := runner.New(runner.Config{Workers: workers, Exec: exec, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	sweep := experiments.NewSweepWithPool(experiments.Options{Steps: cfg.steps}, pool)
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, pool, sweep, cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		pool.Close()
		srv.Drain()
	})
	return ts, srv, pool
}

const smallSpec = `{"cells":"8x8x8","cgs":1,"variant":"acc.async","steps":1%s}`

// postSpec submits a spec body and returns the status code, job id (202)
// and Retry-After seconds (429).
func postSpec(t *testing.T, base, body, tenant string) (int, string, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	id, _ := out["id"].(string)
	retryAfter := 0
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if v, err := strconv.Atoi(ra); err == nil {
			retryAfter = v
		}
	}
	return resp.StatusCode, id, retryAfter
}

// waitJobState polls a job until it reaches want (or any terminal state,
// reported as an error if it isn't the wanted one).
func waitJobState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var job struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if code := getJSON(t, base+"/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if job.State == want {
			return
		}
		switch job.State {
		case "done", "failed", "canceled":
			t.Fatalf("job %s reached %s (err=%q), want %s", id, job.State, job.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, job.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverloadReturns429WithRetryAfter fills the admission window and
// checks that overflow is rejected with 429, a positive Retry-After, and
// a machine-readable reason — and that draining the queue reopens
// admission (slots are released exactly once per job).
func TestOverloadReturns429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	adm := admission.New(admission.Config{MaxRunning: 1, MaxQueued: 1})
	ts, _, _ := newRobustServer(t, gatedExec(release), 1, serverConfig{steps: 1, adm: adm})
	spec := func(i int) string {
		return fmt.Sprintf(smallSpec, fmt.Sprintf(`,"seed":%d`, i))
	}

	// Window is 1 running + 1 queued: two accepted, third rejected.
	for i := 1; i <= 2; i++ {
		if code, _, _ := postSpec(t, ts.URL, spec(i), ""); code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, code)
		}
	}
	code, _, retryAfter := postSpec(t, ts.URL, spec(3), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-window submit = %d, want 429", code)
	}
	if retryAfter < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", retryAfter)
	}

	body, _ := getMetrics(t, ts.URL)
	if v := promValue(t, body, `sunserver_admission_total{decision="queue_full"}`); v < 1 {
		t.Fatalf("queue_full counter = %g", v)
	}
	if v := promValue(t, body, `sunserver_admission_total{decision="accepted"}`); v != 2 {
		t.Fatalf("accepted counter = %g, want 2", v)
	}

	// Drain and verify the window reopens: released slots readmit.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _, _ := postSpec(t, ts.URL, spec(4), ""); code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission window never reopened after drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeleteCancelsJob cancels a queued and a running job through the
// API and checks terminal states, idempotence answers, and that their
// admission slots come back.
func TestDeleteCancelsJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	adm := admission.New(admission.Config{MaxRunning: 1, MaxQueued: 2})
	ts, _, _ := newRobustServer(t, gatedExec(release), 1, serverConfig{steps: 1, adm: adm})

	_, running, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, `,"seed":1`), "")
	_, queued, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, `,"seed":2`), "")
	waitJobState(t, ts.URL, running, "running")

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := del(queued); code != http.StatusAccepted {
		t.Fatalf("DELETE queued = %d, want 202", code)
	}
	waitJobState(t, ts.URL, queued, "canceled")
	if code := del(running); code != http.StatusAccepted {
		t.Fatalf("DELETE running = %d, want 202", code)
	}
	waitJobState(t, ts.URL, running, "canceled")

	if code := del(queued); code != http.StatusConflict {
		t.Fatalf("DELETE terminal job = %d, want 409", code)
	}
	if code := del("j999"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", code)
	}

	// Both slots released: a window of 1+2 admits three fresh jobs.
	for i := 10; i < 13; i++ {
		code, _, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, fmt.Sprintf(`,"seed":%d`, i)), "")
		if code != http.StatusAccepted {
			t.Fatalf("post-cancel submit %d = %d, want 202", i, code)
		}
	}
}

// TestRepeatedRunDoneWhilePoolSaturated: a repeated POST /run is answered
// from the cache at submit, so it reaches done while another job holds the
// only worker.
func TestRepeatedRunDoneWhilePoolSaturated(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	gated := gatedExec(release)
	exec := func(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
		if spec.CGs == 1 {
			return instantExec(ctx, spec)
		}
		return gated(ctx, spec)
	}
	ts, _, pool := newRobustServer(t, exec, 1, serverConfig{steps: 1})

	body := fmt.Sprintf(smallSpec, "")
	_, first, _ := postSpec(t, ts.URL, body, "")
	waitJobState(t, ts.URL, first, "done")
	postSpec(t, ts.URL, `{"cells":"8x8x8","cgs":2,"variant":"acc.async","steps":1}`, "")
	for deadline := time.Now().Add(10 * time.Second); pool.Metrics().Running != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the gated job never started")
		}
	}

	code, again, _ := postSpec(t, ts.URL, body, "")
	if code != http.StatusAccepted {
		t.Fatalf("repeated POST /run = %d, want 202", code)
	}
	waitJobState(t, ts.URL, again, "done")
	if m := pool.Metrics(); m.Running != 1 || m.Executed != 1 || m.CacheHits != 1 {
		t.Fatalf("pool metrics = %+v, want the gated job still running and one cache hit", m)
	}
}

// TestRestartRecovery is the crash-resume acceptance path: server A
// journals two jobs (one finishes, one is killed mid-run), server B
// opens the same store and cache, re-lists the finished job with its
// cached result, resumes the incomplete one, and ends with every
// journaled job terminal.
func TestRestartRecovery(t *testing.T) {
	storeDir := t.TempDir()
	cache, err := runner.NewDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// ---- incarnation A: j1 completes, j2 blocks "forever". ----
	release := make(chan struct{}) // never closed: j2 dies with the server
	blockSeed2 := func(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
		if spec.Seed == 2 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
			}
		}
		return &runner.Result{Feasible: true, ExecSeconds: 0.25}, nil
	}
	storeA, err := jobstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	poolA, err := runner.New(runner.Config{Workers: 2, Exec: blockSeed2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	srvA := newServer(ctxA, poolA, experiments.NewSweepWithPool(experiments.Options{Steps: 1}, poolA), serverConfig{
		steps: 1, store: storeA, cache: cache,
	})
	tsA := httptest.NewServer(srvA.handler())

	_, j1, _ := postSpec(t, tsA.URL, fmt.Sprintf(smallSpec, `,"seed":1`), "t1")
	waitJobState(t, tsA.URL, j1, "done")
	_, j2, _ := postSpec(t, tsA.URL, fmt.Sprintf(smallSpec, `,"seed":2`), "t1")
	waitJobState(t, tsA.URL, j2, "running")

	// "Kill" A: the lifecycle context dies first (so the collector parks
	// out without journaling a verdict for j2), then the pool is torn
	// down with an already-expired drain deadline — the abrupt path.
	tsA.Close()
	cancelA()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	poolA.Shutdown(shutCtx)
	shutCancel()
	srvA.Drain()
	if err := storeA.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- incarnation B over the same store and cache. ----
	storeB, err := jobstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	poolB, err := runner.New(runner.Config{Workers: 2, Exec: instantExec, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ctxB, cancelB := context.WithCancel(context.Background())
	srv := newServer(ctxB, poolB, experiments.NewSweepWithPool(experiments.Options{Steps: 1}, poolB), serverConfig{
		steps: 1, store: storeB, cache: cache,
	})
	tsB := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		tsB.Close()
		cancelB()
		poolB.Close()
		srv.Drain()
		storeB.Close()
	})

	// j1 survived the restart terminal, with its Result straight from the
	// content-addressed cache; j2 resumed and completes.
	var job struct {
		State  string          `json:"state"`
		Tenant string          `json:"tenant"`
		Result *map[string]any `json:"result"`
	}
	if code := getJSON(t, tsB.URL+"/jobs/"+j1, &job); code != http.StatusOK {
		t.Fatalf("GET recovered %s = %d", j1, code)
	}
	if job.State != "done" || job.Result == nil {
		t.Fatalf("recovered %s: state=%s result=%v, want done with cached result", j1, job.State, job.Result)
	}
	if job.Tenant != "t1" {
		t.Fatalf("recovered %s tenant = %q", j1, job.Tenant)
	}
	waitJobState(t, tsB.URL, j2, "done")

	// Acceptance: after kill-and-restart, 100% of journaled jobs reach a
	// terminal state. The in-memory map is current; the journal catches up
	// as collectors flush, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var incomplete []jobstore.Record
		for _, rec := range storeB.Records() {
			if !rec.Terminal() {
				incomplete = append(incomplete, rec)
			}
		}
		if len(incomplete) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal still has incomplete jobs: %+v", incomplete)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecoversStoreWrittenWithRemovedSpecField: upgrading a server with a
// live store and cache must not lose jobs. The files under
// testdata/before-engine-removal were written by a sunserver whose
// runner.Spec still had the Time-Warp field, those under
// testdata/before-shards-removal by one that still had shards (see the
// READMEs there). Replay and disk-cache reads ignore the unknown keys
// (plain json.Unmarshal, unlike POST /run) and the content hash never
// covered either engine knob, so the finished job is relisted with its
// cached result and the unfinished one is resubmitted.
func TestRecoversStoreWrittenWithRemovedSpecField(t *testing.T) {
	for _, dir := range []string{"before-engine-removal", "before-shards-removal"} {
		t.Run(dir, func(t *testing.T) {
			storeDir, cacheDir := t.TempDir(), t.TempDir()
			// Copies: the store compacts and the resubmitted job writes the cache.
			for dst, name := range map[string]string{storeDir: "store", cacheDir: "cache"} {
				src := filepath.Join("testdata", dir, name)
				files, err := os.ReadDir(src)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					data, err := os.ReadFile(filepath.Join(src, f.Name()))
					if err != nil {
						t.Fatal(err)
					}
					if name == "store" && !strings.Contains(string(data), `"shards"`) {
						t.Fatalf("%s no longer carries a removed field", f.Name())
					}
					if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			store, err := jobstore.Open(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			cache, err := runner.NewDiskCache(cacheDir, 0)
			if err != nil {
				t.Fatal(err)
			}
			ts, _, _ := newRobustServer(t, instantExec, 1, serverConfig{steps: 1, store: store, cache: cache})

			var job struct {
				State  string      `json:"state"`
				Tenant string      `json:"tenant"`
				Spec   runner.Spec `json:"spec"`
				Result *struct {
					Sim struct{ BytesOnWire int64 }
				} `json:"result"`
			}
			if code := getJSON(t, ts.URL+"/jobs/j1", &job); code != http.StatusOK {
				t.Fatalf("GET relisted j1 = %d", code)
			}
			if job.State != "done" || job.Tenant != "t1" || job.Spec.CGs != 2 || job.Spec.Layout != "2x1x1" {
				t.Fatalf("relisted j1 = %+v", job)
			}
			if job.Result == nil || job.Result.Sim.BytesOnWire != 1024 {
				t.Fatalf("relisted j1 lost its cached result: %+v", job.Result)
			}
			waitJobState(t, ts.URL, "j2", "done")
		})
	}
}

// countingCache counts lookups on their way to the wrapped cache.
type countingCache struct {
	runner.Cache
	gets atomic.Int64
}

func (c *countingCache) Get(hash string) (*runner.Result, bool) {
	c.gets.Add(1)
	return c.Cache.Get(hash)
}

// TestRecoveredResultsLoadOnFirstRead: start-up decodes no cache entry,
// however many done records the journal holds; a recovered job's first
// status or trace read looks its result up once, later reads not again; a
// job whose entry is gone is listed done without a result.
func TestRecoveredResultsLoadOnFirstRead(t *testing.T) {
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cache := &countingCache{Cache: runner.NewMemoryCache(0)}
	now := time.Now()
	for i, id := range []string{"j1", "j2", "j3"} {
		spec := runner.Spec{Cells: "8x8x8", CGs: 1, Variant: "acc.async", Steps: 1, Seed: uint64(i + 1)}
		if err := store.Accept(jobstore.Record{ID: id, Spec: spec, State: runner.StateQueued, Submitted: now}); err != nil {
			t.Fatal(err)
		}
		if err := store.Finish(id, runner.StateDone, now, ""); err != nil {
			t.Fatal(err)
		}
		if id != "j3" {
			cache.Put(spec.Hash(), &runner.Result{Feasible: true, ExecSeconds: float64(i + 1)})
		}
	}
	ts, _, _ := newRobustServer(t, instantExec, 1, serverConfig{steps: 1, store: store, cache: cache})
	var list []struct{ ID, State string }
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list) != 3 {
		t.Fatalf("GET /jobs = %d, %+v", code, list)
	}
	if n := cache.gets.Load(); n != 0 {
		t.Fatalf("%d cache lookups before any job was read, want 0", n)
	}
	var job struct {
		State  string
		Result *struct{ ExecSeconds float64 }
	}
	for range 2 {
		if code := getJSON(t, ts.URL+"/jobs/j2", &job); code != http.StatusOK {
			t.Fatalf("GET /jobs/j2 = %d", code)
		}
		if job.State != "done" || job.Result == nil || job.Result.ExecSeconds != 2 {
			t.Fatalf("recovered j2 = %+v", job)
		}
	}
	if resp, err := http.Get(ts.URL + "/jobs/j1/trace"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/j1/trace = %d, want 404 (the result carries no trace)", resp.StatusCode)
	}
	job.Result = nil
	if code := getJSON(t, ts.URL+"/jobs/j3", &job); code != http.StatusOK || job.State != "done" || job.Result != nil {
		t.Fatalf("recovered j3 without a cache entry = %d, %+v", code, job)
	}
	if n := cache.gets.Load(); n != 3 {
		t.Fatalf("%d cache lookups for three recovered jobs read four times, want 3", n)
	}
}

// TestShutdownDrainsCollectGoroutines asserts the collect-goroutine leak
// fix: with a job parked on a never-finishing execution, cancelling the
// server context and closing the pool lets Drain return promptly.
func TestShutdownDrainsCollectGoroutines(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	pool, err := runner.New(runner.Config{Workers: 1, Exec: gatedExec(release), Cache: runner.NewMemoryCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, pool, experiments.NewSweepWithPool(experiments.Options{Steps: 1}, pool), serverConfig{steps: 1})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	_, id, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, `,"seed":1`), "")
	waitJobState(t, ts.URL, id, "running")

	cancel()
	done := make(chan struct{})
	go func() {
		srv.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("collect goroutines leaked past shutdown")
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	pool.Shutdown(shutCtx)
	shutCancel()
}

// TestJobsListSorted checks listings come back in ascending numeric job
// ID order regardless of map iteration order.
func TestJobsListSorted(t *testing.T) {
	ts, _, _ := newRobustServer(t, instantExec, 2, serverConfig{steps: 1})
	for i := 1; i <= 12; i++ {
		code, _, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, fmt.Sprintf(`,"seed":%d`, i)), "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
	}
	var list []struct {
		ID string `json:"id"`
	}
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	if len(list) != 12 {
		t.Fatalf("listed %d jobs, want 12", len(list))
	}
	for i, j := range list {
		if want := fmt.Sprintf("j%d", i+1); j.ID != want {
			t.Fatalf("position %d = %s, want %s", i, j.ID, want)
		}
	}
}

// TestRetentionGCDropsOldTerminalJobs checks the job-map cap: old
// terminal jobs fall out of memory and the journal, newest survive.
func TestRetentionGCDropsOldTerminalJobs(t *testing.T) {
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _ := newRobustServer(t, instantExec, 2, serverConfig{steps: 1, store: store, retain: 3})
	t.Cleanup(func() { store.Close() })

	var last string
	for i := 1; i <= 8; i++ {
		code, id, _ := postSpec(t, ts.URL, fmt.Sprintf(smallSpec, fmt.Sprintf(`,"seed":%d`, i)), "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		waitJobState(t, ts.URL, id, "done")
		last = id
	}
	var list []struct {
		ID string `json:"id"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list) != 3 {
		t.Fatalf("retained %d jobs, want 3", len(list))
	}
	if list[len(list)-1].ID != last {
		t.Fatalf("newest job %s missing from retained set %v", last, list)
	}
	if n := store.Len(); n != 3 {
		t.Fatalf("journal retained %d records, want 3", n)
	}
}

// TestLoadCheck keeps the server coherent under concurrent load: six
// clients each submit ten distinct-seed specs against a 2 running + 4
// queued admission window whose executions are held until the window has
// overflowed once. Every answer is 202 or a queue_full 429 with a
// Retry-After, a rejected client gets in once jobs drain, every accepted
// job finishes, and the admission metrics agree with what the clients saw.
func TestLoadCheck(t *testing.T) {
	const clients, perClient = 6, 10
	release := make(chan struct{})
	var opened sync.Once
	open := func() { opened.Do(func() { close(release) }) }
	defer open()
	adm := admission.New(admission.Config{MaxRunning: 2, MaxQueued: 4})
	ts, _, _ := newRobustServer(t, gatedExec(release), 2, serverConfig{steps: 1, adm: adm})

	type answer struct {
		ID     string `json:"id"`
		Reason string `json:"reason"`
	}
	post := func(seed int, tenant string) (int, answer, string, error) {
		body := fmt.Sprintf(smallSpec, fmt.Sprintf(`,"seed":%d`, seed))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(body))
		if err != nil {
			return 0, answer{}, "", err
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, answer{}, "", err
		}
		defer resp.Body.Close()
		var a answer
		err = json.NewDecoder(resp.Body).Decode(&a)
		return resp.StatusCode, a, resp.Header.Get("Retry-After"), err
	}

	var accepted, rejected atomic.Int64
	ids := make(chan string, clients*perClient)
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("client%d", c)
			for i := 0; i < perClient; i++ {
				seed := c*perClient + i + 1
				for {
					code, a, retryAfter, err := post(seed, tenant)
					if err != nil {
						t.Errorf("seed %d: %v", seed, err)
						return
					}
					if code == http.StatusAccepted {
						accepted.Add(1)
						ids <- a.ID
						break
					}
					if code != http.StatusTooManyRequests || a.Reason != admission.ReasonQueueFull {
						t.Errorf("seed %d: status %d reason %q, want 202 or 429 %q", seed, code, a.Reason, admission.ReasonQueueFull)
						return
					}
					if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
						t.Errorf("seed %d: Retry-After %q, want >= 1", seed, retryAfter)
						return
					}
					rejected.Add(1)
					// The window has overflowed: let the held jobs drain, and
					// retry until the window reopens.
					open()
					if time.Now().After(deadline) {
						t.Errorf("seed %d: admission window never reopened", seed)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	if t.Failed() {
		t.FailNow()
	}
	if rejected.Load() == 0 {
		t.Fatal("the admission window never filled: no 429")
	}
	for id := range ids {
		waitJobState(t, ts.URL, id, "done")
	}
	// X-Tenant is job metadata, not an admission key: every client's jobs
	// are listed under its tenant.
	var list []struct{ Tenant string }
	getJSON(t, ts.URL+"/jobs", &list)
	perTenant := map[string]int{}
	for _, j := range list {
		perTenant[j.Tenant]++
	}
	for c := 0; c < clients; c++ {
		if n := perTenant[fmt.Sprintf("client%d", c)]; n != perClient {
			t.Fatalf("tenant client%d has %d listed jobs, want %d", c, n, perClient)
		}
	}

	body, _ := getMetrics(t, ts.URL)
	if v := promValue(t, body, `sunserver_admission_total{decision="accepted"}`); v != float64(accepted.Load()) {
		t.Fatalf("accepted counter = %g, clients saw %d 202s", v, accepted.Load())
	}
	if v := promValue(t, body, `sunserver_admission_total{decision="queue_full"}`); v != float64(rejected.Load()) {
		t.Fatalf("queue_full counter = %g, clients saw %d 429s", v, rejected.Load())
	}
	// A job turns done just before its collector releases the slot.
	for {
		body, _ := getMetrics(t, ts.URL)
		if v := promValue(t, body, `sunserver_admission{name="outstanding"}`); v == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("outstanding = %g after every job finished", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("loadcheck: %d accepted, %d rejected", accepted.Load(), rejected.Load())
}
