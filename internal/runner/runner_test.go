package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sunuintah/internal/core"
	"sunuintah/internal/sim"
)

func fakeResult(perStep float64) *Result {
	return &Result{Feasible: true, Sim: &core.Result{Steps: 1, PerStep: sim.Time(perStep), WallTime: sim.Time(perStep)}}
}

func TestSpecHash(t *testing.T) {
	a := Spec{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10}
	b := a
	if a.Hash() != b.Hash() {
		t.Error("identical specs must hash identically")
	}
	// Every field must participate in the hash.
	variants := []Spec{
		{Problem: "16x32x512", CGs: 4, Variant: "acc.async", Steps: 10},
		{Problem: "16x16x512", CGs: 8, Variant: "acc.async", Steps: 10},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.sync", Steps: 10},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 5},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10, Noise: 0.1},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10, Seed: 2},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10, Functional: true},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10, AsyncDMA: true},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10, TilePacking: true},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10, CPEGroups: 2},
		{Problem: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10, TileSize: "8x8x8"},
		{Problem: "16x16x512", Layout: "2x2x1", CGs: 4, Variant: "acc.async", Steps: 10},
		{Cells: "16x16x512", CGs: 4, Variant: "acc.async", Steps: 10},
	}
	seen := map[string]int{a.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("spec %d collides with %d: %s", i, prev, v)
		}
		seen[h] = i
	}
}

func TestMemoryCacheLRU(t *testing.T) {
	c := NewMemoryCache(2)
	c.Put("a", fakeResult(1))
	c.Put("b", fakeResult(2))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", fakeResult(3))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if n := c.order.Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := fakeResult(0.25)
	r.ExecSeconds = 1.5
	c.Put("abc", r)

	// A fresh DiskCache (fresh memory layer) must read it back from disk.
	c2, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("abc")
	if !ok {
		t.Fatal("disk entry missing")
	}
	if !got.Feasible || got.Sim.PerStep != r.Sim.PerStep || got.ExecSeconds != 1.5 {
		t.Errorf("round-trip mismatch: %+v", got)
	}

	// Corrupt entries are misses, not failures.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("bad"); ok {
		t.Error("corrupt entry should miss")
	}
}

func TestPoolDedupsConcurrentSubmissions(t *testing.T) {
	var runs int64
	block := make(chan struct{})
	p, err := New(Config{
		Workers: 2,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			atomic.AddInt64(&runs, 1)
			<-block
			return fakeResult(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	spec := Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1}
	j1 := p.Submit(spec)
	j2 := p.Submit(spec)
	if j1 != j2 {
		t.Error("pending submissions of the same spec must coalesce onto one job")
	}
	close(block)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&runs); n != 1 {
		t.Errorf("exec ran %d times, want 1", n)
	}
	if m := p.Metrics(); m.Coalesced != 1 || m.Submitted != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestPoolPanicFailsOnlyThatJob(t *testing.T) {
	p, err := New(Config{
		Workers: 2,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			if spec.Problem == "boom" {
				panic("kernel exploded")
			}
			return fakeResult(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bad := p.Submit(Spec{Problem: "boom", CGs: 1, Variant: "v", Steps: 1})
	good := p.Submit(Spec{Problem: "fine", CGs: 1, Variant: "v", Steps: 1})

	if _, err := good.Wait(context.Background()); err != nil {
		t.Fatalf("healthy job failed: %v", err)
	}
	_, err = bad.Wait(context.Background())
	if err == nil {
		t.Fatal("panicking job should fail")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %T: %v", err, err)
	}
	if pe.Value != "kernel exploded" || len(pe.Stack) == 0 {
		t.Errorf("panic error = %+v", pe)
	}
	if bad.State() != StateFailed || good.State() != StateDone {
		t.Errorf("states = %s / %s", bad.State(), good.State())
	}
	m := p.Metrics()
	if m.Failed != 1 || m.Done != 1 || m.Panics == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestPoolSurvivesPanickingRankBody: a panic inside a simulated rank — a
// sim.Process body, not the exec function itself — must reach the pool's
// recover as that job's error, on the serial engine and on shard workers
// (4 shards at GOMAXPROCS 4), and leave the pool serving. A spec's CGs
// beyond the four ranks selects the shard count.
func TestPoolSurvivesPanickingRankBody(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p, err := New(Config{
		Workers: 2,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			engOf, run := func(int) *sim.Engine { return nil }, func() sim.Time { return 0 }
			if shards := spec.CGs - 4; shards > 1 {
				ss := sim.NewShardSet(shards, sim.Microsecond)
				engOf, run = ss.Engine, ss.Run
			} else {
				e := sim.NewEngine()
				engOf, run = func(int) *sim.Engine { return e }, e.Run
			}
			for r := 0; r < 4; r++ {
				r := r
				engOf(r).Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Process) {
					p.Sleep(1e-3)
					if spec.Problem == "boom" && r == 3 {
						panic("kernel exploded")
					}
					p.Sleep(1e-3)
				})
			}
			return fakeResult(float64(run())), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for _, shards := range []int{0, 4} {
		bad := p.Submit(Spec{Problem: "boom", CGs: 4 + shards, Variant: "v", Steps: 1})
		_, err := bad.Wait(context.Background())
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "kernel exploded" {
			t.Fatalf("shards=%d: want the body's panic as a PanicError, got %v", shards, err)
		}
		good := p.Submit(Spec{Problem: "fine", CGs: 4 + shards, Variant: "v", Steps: 1})
		if _, err := good.Wait(context.Background()); err != nil {
			t.Fatalf("shards=%d: pool stopped serving after the panic: %v", shards, err)
		}
	}
}

func TestPoolRetriesNoisyJobs(t *testing.T) {
	var attempts int64
	p, err := New(Config{
		Workers: 1,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			if atomic.AddInt64(&attempts, 1) < 3 {
				return nil, errors.New("transient")
			}
			return fakeResult(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	res, err := p.Run(context.Background(), Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1, Noise: 0.1, Seed: 1})
	if err != nil {
		t.Fatalf("noisy job should succeed after retries: %v", err)
	}
	if !res.Feasible {
		t.Error("result should be feasible")
	}
	if n := atomic.LoadInt64(&attempts); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
	if m := p.Metrics(); m.Retries != 2 {
		t.Errorf("retries = %d, want 2", m.Retries)
	}
}

func TestPoolDoesNotRetryDeterministicErrors(t *testing.T) {
	var attempts int64
	p, err := New(Config{
		Workers: 1,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			atomic.AddInt64(&attempts, 1)
			return nil, errors.New("bad spec")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Noise-free failures are deterministic: retrying cannot help.
	if _, err := p.Run(context.Background(), Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1}); err == nil {
		t.Fatal("want error")
	}
	if n := atomic.LoadInt64(&attempts); n != 1 {
		t.Errorf("attempts = %d, want 1", n)
	}
}

func TestPoolTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p, err := New(Config{
		Workers: 1,
		Timeout: 20 * time.Millisecond,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			<-release // hang past the deadline
			return fakeResult(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_, err = p.Run(context.Background(), Spec{Problem: "hang", CGs: 1, Variant: "v", Steps: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestPoolCacheHitsAndSavings(t *testing.T) {
	var runs int64
	cache := NewMemoryCache(0)
	exec := func(ctx context.Context, spec Spec) (*Result, error) {
		atomic.AddInt64(&runs, 1)
		return fakeResult(1), nil
	}
	p, err := New(Config{Workers: 2, Exec: exec, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1}
	if _, err := p.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// Resubmit after completion: served from cache, not re-executed.
	if _, err := p.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if n := atomic.LoadInt64(&runs); n != 1 {
		t.Errorf("exec ran %d times, want 1", n)
	}
	m := p.Metrics()
	if m.CacheHits != 1 || m.Executed != 1 || m.HitRate() != 0.5 {
		t.Errorf("metrics = %+v hitRate=%v", m, m.HitRate())
	}
}

// TestPoolCacheHitFinishesAtSubmit: while a gated execution holds the only
// worker, a cached spec is answered by Submit itself instead of queueing
// behind it.
func TestPoolCacheHitFinishesAtSubmit(t *testing.T) {
	gate := make(chan struct{})
	cache := NewMemoryCache(0)
	cached := Spec{Problem: "cached", CGs: 1, Variant: "v", Steps: 1}
	cache.Put(cached.Hash(), fakeResult(1))
	p, err := New(Config{Workers: 1, Cache: cache, Exec: func(ctx context.Context, spec Spec) (*Result, error) {
		<-gate
		return fakeResult(2), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer close(gate)

	busy := p.Submit(Spec{Problem: "busy", CGs: 1, Variant: "v", Steps: 1})
	for busy.State() != StateRunning {
		runtime.Gosched()
	}
	before := p.Metrics()
	j := p.Submit(cached)
	if j.State() != StateDone {
		t.Fatalf("cached spec is %s after Submit, want done", j.State())
	}
	select {
	case <-j.done:
	default:
		t.Fatal("cached spec's job has not finished at Submit")
	}
	after := p.Metrics()
	if after.CacheHits != before.CacheHits+1 || after.Done != before.Done+1 ||
		after.Submitted != before.Submitted+1 || after.Executed != before.Executed {
		t.Fatalf("metrics before %+v\nafter %+v", before, after)
	}
}

// TestPoolExecutesConcurrentSubmissionsOnce: many goroutines submitting one
// uncached spec while it runs share a single execution.
func TestPoolExecutesConcurrentSubmissionsOnce(t *testing.T) {
	const submitters = 16
	var runs atomic.Int64
	started, gate := make(chan struct{}), make(chan struct{})
	p, err := New(Config{Workers: 4, Cache: NewMemoryCache(0), Exec: func(ctx context.Context, spec Spec) (*Result, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-gate
		return fakeResult(1), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	spec := Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1}
	first := p.Submit(spec)
	<-started
	var wg sync.WaitGroup
	jobs := make([]*Job, submitters)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[i] = p.Submit(spec)
		}()
	}
	wg.Wait()
	close(gate)
	for _, j := range append(jobs, first) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("exec ran %d times, want 1", n)
	}
	if m := p.Metrics(); m.Executed != 1 || m.Coalesced != submitters {
		t.Fatalf("metrics = %+v", m)
	}
}

// lookupHook is a cache that misses and runs a hook inside every lookup.
type lookupHook func()

func (h lookupHook) Get(string) (*Result, bool) { h(); return nil, false }
func (h lookupHook) Put(string, *Result)        {}

// TestSubmitClosedDuringLookup: a Close landing while Submit looks a spec
// up fails the job with ErrClosed instead of leaving it in a queue no
// worker drains any more.
func TestSubmitClosedDuringLookup(t *testing.T) {
	var p *Pool
	p, err := New(Config{Workers: 1, Cache: lookupHook(func() { p.Close() }),
		Exec: func(ctx context.Context, spec Spec) (*Result, error) { return fakeResult(1), nil }})
	if err != nil {
		t.Fatal(err)
	}
	j := p.Submit(Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if m := p.Metrics(); m.Failed != 1 || m.Queued != 0 || m.Executed != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRepeats(t *testing.T) {
	clean := Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1, Seed: 7}
	if got := Repeats(clean, 5); len(got) != 1 || got[0] != clean {
		t.Fatalf("noise-free spec: %v, want itself alone", got)
	}
	noisy := clean
	noisy.Noise = 0.1
	for _, k := range []int{0, 1, 3} {
		got := Repeats(noisy, k)
		if len(got) != max(k, 1) {
			t.Fatalf("k=%d: %d specs", k, len(got))
		}
		for i, s := range got {
			want := noisy
			want.Seed = uint64(i + 1)
			if s != want {
				t.Fatalf("k=%d repeat %d = %+v, want %+v", k, i, s, want)
			}
		}
	}
}

func TestPoolEventsAndProgress(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventType]int{}
	var lastDone, lastTotal int64
	p, err := New(Config{
		Workers: 2,
		Cache:   NewMemoryCache(0),
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			return fakeResult(1), nil
		},
		OnEvent: func(ev Event) {
			mu.Lock()
			counts[ev.Type]++
			lastDone, lastTotal = ev.Done, ev.Total
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, p.Submit(Spec{Problem: fmt.Sprintf("p%d", i), CGs: 1, Variant: "v", Steps: 1}))
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	if counts[EventQueued] != 5 || counts[EventStarted] != 5 || counts[EventDone] != 5 {
		t.Errorf("event counts = %v", counts)
	}
	if lastDone != 5 || lastTotal != 5 {
		t.Errorf("final progress = %d/%d, want 5/5", lastDone, lastTotal)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	p, err := New(Config{Workers: 1, Exec: func(ctx context.Context, spec Spec) (*Result, error) {
		return fakeResult(1), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	j := p.Submit(Spec{Problem: "p", CGs: 1, Variant: "v", Steps: 1})
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
}

func TestMinResult(t *testing.T) {
	fast, slow := fakeResult(1), fakeResult(2)
	infeasible := &Result{Feasible: false}
	if got := MinResult([]*Result{slow, fast, infeasible}); got != fast {
		t.Errorf("MinResult picked %+v", got)
	}
	if got := MinResult([]*Result{infeasible, nil}); got != infeasible {
		t.Errorf("all-infeasible should return the infeasible result, got %+v", got)
	}
	if got := MinResult(nil); got != nil {
		t.Errorf("empty input should return nil, got %+v", got)
	}
}
