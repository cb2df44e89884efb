package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/rng"
	"sunuintah/internal/runner"
	"sunuintah/internal/workload"
)

//go:embed serve_scenario.json
var serveScenarioJSON []byte

// serveScenario is the frozen traffic description: arrival times come from
// a workload.Scenario (constant pattern at the frozen rate), the per-job
// draws from the lists below.
type serveScenario struct {
	Arrivals    json.RawMessage `json:"arrivals"`
	CGs         []int           `json:"cgs"`
	Variants    []string        `json:"variants"`
	HotSet      int             `json:"hot_set"`
	HotFrac     float64         `json:"hot_frac"`
	OpenShare   float64         `json:"open_share"`   // of --seconds: open-loop phase
	ClosedShare float64         `json:"closed_share"` // of --seconds: closed-loop phase
}

// specGen draws job specs: with probability HotFrac one of the hot set
// (repeated specs: cache hits and coalescing), otherwise a spec made
// distinct by a never-repeated seed, which changes the content hash and
// nothing else when noise is off.
type specGen struct {
	mu       sync.Mutex
	sc       serveScenario
	base     runner.Spec
	draw     *rng.Stream
	distinct uint64
}

// shape returns the i-th (CG count, variant) combination of the mix.
func (g *specGen) shape(i int) runner.Spec {
	s := g.base
	s.CGs = g.sc.CGs[i%len(g.sc.CGs)]
	s.Variant = g.sc.Variants[i/len(g.sc.CGs)%len(g.sc.Variants)]
	return s
}

func (g *specGen) hotSpec(i int) runner.Spec {
	s := g.shape(i)
	s.Seed = uint64(1 + i)
	return s
}

func (g *specGen) next() (spec runner.Spec, hot bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draw.Uniform() < g.sc.HotFrac {
		return g.hotSpec(g.draw.Intn(g.sc.HotSet)), true
	}
	s := g.shape(g.draw.Intn(len(g.sc.CGs) * len(g.sc.Variants)))
	g.distinct++
	s.Seed = 1_000_000 + g.distinct
	return s, false
}

// serveJob is one request's life as the client sees it: due → POST → 202 →
// polls → done.
type serveJob struct {
	spec runner.Spec
	hot  bool
	due  time.Time // open loop: when the schedule wanted it sent

	postStart time.Time
	accepted  time.Time
	done      time.Time
	id        string
	failure   string // non-empty: why the job counts as failed
	// Server-reported: exec seconds of the result and finished − submitted.
	execS, serverS float64
	keepBody       bool
	body           []byte
}

// serveClient talks to one sunserver over at most nproc connections.
type serveClient struct {
	base string
	http *http.Client

	mu       sync.Mutex
	submitMs []float64
	statusMs []float64
	bad      []string // 5xx and transport failures on any request
}

func newServeClient(base string) *serveClient {
	return &serveClient{base: base, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: runtime.GOMAXPROCS(0), MaxIdleConnsPerHost: runtime.GOMAXPROCS(0)},
	}}
}

func (c *serveClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.mu.Lock()
		c.bad = append(c.bad, fmt.Sprintf("%s %s: %v", method, path, err))
		c.mu.Unlock()
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode >= 500 {
		c.mu.Lock()
		c.bad = append(c.bad, fmt.Sprintf("%s %s: %d", method, path, resp.StatusCode))
		c.mu.Unlock()
	}
	return resp.StatusCode, data, err
}

// submit POSTs the job; anything but 202 marks it failed (a 429 is a job the
// user did not get).
func (c *serveClient) submit(j *serveJob) {
	body, err := json.Marshal(j.spec)
	if err != nil {
		j.failure = err.Error()
		return
	}
	j.postStart = time.Now()
	code, data, err := c.do("POST", "/run", body)
	j.accepted = time.Now()
	c.mu.Lock()
	c.submitMs = append(c.submitMs, ms(j.accepted.Sub(j.postStart)))
	c.mu.Unlock()
	switch {
	case err != nil:
		j.failure = err.Error()
	case code != http.StatusAccepted:
		j.failure = fmt.Sprintf("POST /run: %d", code)
	default:
		var resp struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &resp); err != nil || resp.ID == "" {
			j.failure = "POST /run: unreadable response"
		}
		j.id = resp.ID
	}
}

// poll asks for the job's state once and reports whether it is terminal.
func (c *serveClient) poll(j *serveJob) bool {
	t0 := time.Now()
	code, data, err := c.do("GET", "/jobs/"+j.id, nil)
	now := time.Now()
	c.mu.Lock()
	c.statusMs = append(c.statusMs, ms(now.Sub(t0)))
	c.mu.Unlock()
	if err != nil || code != http.StatusOK {
		j.failure = fmt.Sprintf("GET /jobs/%s: %d %v", j.id, code, err)
		return true
	}
	var st struct {
		State     runner.JobState `json:"state"`
		Submitted time.Time       `json:"submitted"`
		Finished  *time.Time      `json:"finished"`
		Error     string          `json:"error"`
		Result    *struct {
			Feasible    bool    `json:"feasible"`
			ExecSeconds float64 `json:"execSeconds"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		j.failure = fmt.Sprintf("GET /jobs/%s: %v", j.id, err)
		return true
	}
	switch st.State {
	case runner.StateDone:
		j.done = now
		if st.Result == nil || !st.Result.Feasible || st.Finished == nil {
			j.failure = "done without a feasible result"
			return true
		}
		j.execS = st.Result.ExecSeconds
		j.serverS = st.Finished.Sub(st.Submitted).Seconds()
		if j.keepBody {
			j.body = data
		}
		return true
	case runner.StateFailed, runner.StateCanceled:
		j.failure = fmt.Sprintf("job %s %s: %s", j.id, st.State, st.Error)
		return true
	}
	return false
}

// pollInterval paces status polls: short against the ~20 ms a job takes, long
// enough that polling stays a small share of the server's CPU.
const pollInterval = time.Millisecond

// drainTimeout bounds the wait for accepted jobs after a phase ends; a job
// still not done by then counts as failed.
const drainTimeout = 15 * time.Second

// openLoop sends each job at its due time regardless of completions: one
// goroutine submits on schedule, another polls everything outstanding.
func (c *serveClient) openLoop(jobs []*serveJob) {
	submitted := make(chan *serveJob, len(jobs)) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(submitted)
		for _, j := range jobs {
			time.Sleep(time.Until(j.due))
			c.submit(j)
			if j.failure == "" {
				submitted <- j
			}
		}
	}()
	var outstanding []*serveJob
	open := true
	var drainBy time.Time
	for open || len(outstanding) > 0 {
		for more := true; more && open; {
			select {
			case j, ok := <-submitted:
				if !ok {
					open, drainBy = false, time.Now().Add(drainTimeout)
				} else {
					outstanding = append(outstanding, j)
				}
			default:
				more = false
			}
		}
		if !open && time.Now().After(drainBy) {
			for _, j := range outstanding {
				j.failure = "not done within the drain timeout"
			}
			break
		}
		kept := outstanding[:0]
		for _, j := range outstanding {
			if !c.poll(j) {
				kept = append(kept, j)
			}
		}
		outstanding = kept
		time.Sleep(pollInterval)
	}
	wg.Wait()
}

// closedLoop runs nproc clients until the deadline; each sends its next job
// only after the previous one is done.
func (c *serveClient) closedLoop(gen *specGen, d time.Duration) []*serveJob {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var all []*serveJob
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				spec, hot := gen.next()
				j := &serveJob{spec: spec, hot: hot}
				c.runToDone(j)
				mu.Lock()
				all = append(all, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all
}

// runToDone submits one job and polls it until it is terminal.
func (c *serveClient) runToDone(j *serveJob) {
	c.submit(j)
	if j.failure != "" {
		return
	}
	giveUp := time.Now().Add(drainTimeout)
	for !c.poll(j) {
		if time.Now().After(giveUp) {
			j.failure = "not done within the drain timeout"
			return
		}
		time.Sleep(pollInterval)
	}
}

// sunserver is a spawned server process.
type sunserver struct {
	cmd  *exec.Cmd
	base string
}

// buildSunserver compiles cmd/sunserver from the checkout into the build
// directory (a no-op when the build cache is warm).
func buildSunserver(o runOpts) (string, error) {
	bin := filepath.Join(o.build, "sunserver")
	cmd := exec.Command("go", "build", "-o", bin, "sunuintah/cmd/sunserver")
	cmd.Dir = filepath.Join(o.root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build sunserver: %v\n%s", err, out)
	}
	return bin, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startSunserver launches the server on the given state directory and
// returns once /healthz answers 200, with the time that took.
func startSunserver(bin, dir string, pprof bool) (*sunserver, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-jobs", strconv.Itoa(runtime.GOMAXPROCS(0)),
		"-cache", filepath.Join(dir, "cache"), "-store", filepath.Join(dir, "jobs")}
	if pprof {
		args = append(args, "-pprof")
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	// The server must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &sunserver{cmd: cmd, base: "http://" + addr}
	client := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 20*time.Second {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("sunserver did not become healthy within 20 s")
}

// stop asks the server to drain (SIGTERM), kills it if it does not exit in
// time, and waits until the process has ended.
func (s *sunserver) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below reports it
	exited := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status is irrelevant once we asked it to stop
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
}

// promValues reads /metrics and returns every sample as "name{labels}" → value.
func (c *serveClient) promValues() (map[string]float64, error) {
	code, data, err := c.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, nil
}

// newSpecGen loads the frozen scenario and returns the spec generator, the
// open-loop schedule for the seed, and the two phase lengths.
func newSpecGen(o runOpts) (gen *specGen, schedule []workload.Job, openLen, closedLen time.Duration, err error) {
	var sc serveScenario
	if err := json.Unmarshal(serveScenarioJSON, &sc); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("serve_scenario.json: %w", err)
	}
	arrivals, err := workload.Parse(sc.Arrivals)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("serve_scenario.json: %w", err)
	}
	openLen = time.Duration(float64(o.measure()) * sc.OpenShare)
	closedLen = time.Duration(float64(o.measure()) * sc.ClosedShare)
	if o.trace {
		// The traced run spends its time where the profile is taken.
		openLen, closedLen = closedLen, openLen
	}
	arrivals.Seed = o.seed
	arrivals.Phases[0].Duration = openLen.Seconds()
	if schedule, err = arrivals.Expand(); err != nil {
		return nil, nil, 0, 0, err
	}
	if len(schedule) == 0 {
		return nil, nil, 0, 0, errors.New("the scenario expanded to no jobs")
	}
	gen = &specGen{sc: sc, base: schedule[0].Spec, draw: rng.New(rng.SubSeed(o.seed, 2, 0))}
	if o.tiny {
		gen.base.Cells, gen.base.Layout, gen.base.Steps = "16x16x32", "2x2x2", 2
		gen.sc.CGs = []int{2, 4}
	}
	return gen, schedule, openLen, closedLen, nil
}

// tracedClosedLoop is the traced run's phase B: closed-loop segments taking
// turns plain and under the server's CPU profiler (three segments each). It returns the jobs, the
// profile, and the profiled segments' throughput loss against the plain ones.
func (c *serveClient) tracedClosedLoop(gen *specGen, d time.Duration) (jobs []*serveJob, stacks []stack, overhead float64, err error) {
	const segments = 6
	seg := d / segments
	var rate [2]float64 // [plain, profiled] jobs/s, summed over segments
	for i := 0; i < segments; i++ {
		profiled := i%4 == 1 || i%4 == 2 // plain, profiled, profiled, plain, …: drift cancels
		profDone := make(chan error, 1)
		if profiled {
			go func() {
				st, err := c.serverProfile(seg)
				stacks = append(stacks, st...)
				profDone <- err
			}()
		}
		t0 := time.Now()
		segJobs := c.closedLoop(gen, seg)
		side := 0
		if profiled {
			side = 1
		}
		rate[side] += float64(countDone(segJobs)) / time.Since(t0).Seconds()
		jobs = append(jobs, segJobs...)
		if profiled {
			if err := <-profDone; err != nil {
				return nil, nil, 0, err
			}
		}
	}
	return jobs, stacks, 1 - rate[1]/rate[0], nil
}

func runServe(o runOpts, m *measured) error {
	gen, schedule, openLen, closedLen, err := newSpecGen(o)
	if err != nil {
		return err
	}
	bin, err := buildSunserver(o)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.build, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, _, err := startSunserver(bin, dir, o.trace)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	c := newServeClient(srv.base)

	// Fill the cache with the hot set before anything is timed.
	for i := 0; i < gen.sc.HotSet; i++ {
		j := &serveJob{spec: gen.hotSpec(i), hot: true}
		c.runToDone(j)
		if j.failure != "" {
			return fmt.Errorf("hot-set warm-up: %s", j.failure)
		}
	}
	c.submitMs, c.statusMs = nil, nil
	before, err := c.promValues()
	if err != nil {
		return err
	}
	cpu0 := procCPUSeconds(srv.cmd.Process.Pid)

	// Phase A, open loop at the scenario's frozen rate.
	start := time.Now().Add(20 * time.Millisecond)
	open := make([]*serveJob, len(schedule))
	sample := -1
	for i, a := range schedule {
		spec, hot := gen.next()
		open[i] = &serveJob{spec: spec, hot: hot, due: start.Add(time.Duration(a.At * float64(time.Second)))}
		if !hot && sample < 0 && i >= len(schedule)/2 {
			sample, open[i].keepBody = i, true
		}
	}
	c.openLoop(open)

	// Phase B, closed loop with nproc clients.
	var closed []*serveJob
	var closedRate, overhead float64
	var stacks []stack
	if o.trace {
		if closed, stacks, overhead, err = c.tracedClosedLoop(gen, closedLen); err != nil {
			return err
		}
	} else {
		t0 := time.Now()
		closed = c.closedLoop(gen, closedLen)
		closedRate = float64(countDone(closed)) / time.Since(t0).Seconds()
	}
	cpu := procCPUSeconds(srv.cmd.Process.Pid) - cpu0
	after, err := c.promValues()
	if err != nil {
		return err
	}
	serverRSS := peakRSSMB(srv.cmd.Process.Pid)

	// Outcomes: every submission is an attempted operation.
	var execMs, hitMs, queueMs, lateMs []float64
	byCGs := map[int][]float64{}
	completed := 0
	for _, j := range slices.Concat(open, closed) {
		m.attempted++
		if j.failure != "" {
			m.fail("serve-mixed: %s: %s", j.spec, j.failure)
			continue
		}
		completed++
	}
	for _, j := range open {
		lateMs = append(lateMs, ms(j.postStart.Sub(j.due)))
		if j.failure != "" {
			continue
		}
		lat := ms(j.done.Sub(j.due))
		if j.hot {
			hitMs = append(hitMs, lat)
		} else {
			execMs = append(execMs, lat)
			byCGs[j.spec.CGs] = append(byCGs[j.spec.CGs], lat)
			queueMs = append(queueMs, 1000*(j.serverS-j.execS))
		}
	}
	for _, b := range c.bad {
		m.attempted++
		m.fail("serve-mixed: %s", b)
	}
	if sample >= 0 && open[sample].failure == "" {
		m.attempted++
		if err := checkAgainstDirect(open[sample]); err != nil {
			m.fail("serve-mixed: %v", err)
		}
	}

	// Restart on the journal and cache this run wrote: time to first healthy
	// answer, which covers journal replay and result repopulation.
	srv.stop()
	stopped = true
	var restarts []float64
	for i := 0; i < 9; i++ {
		again, took, err := startSunserver(bin, dir, false)
		if err != nil {
			return err
		}
		again.stop()
		restarts = append(restarts, took.Seconds())
	}

	if !o.trace {
		m.set("setup_s", median(restarts))
		m.set("work_per_s", closedRate)
		m.set("op_ms_p50", median(execMs))
		m.set("op_ms_tail", percentile(execMs, 0.90))
		m.set("cpu_ms_per_op", 1000*cpu/float64(completed))
		for _, cgs := range gen.sc.CGs {
			m.note("serve-mixed: %d-CG jobs: %d executed, p50 %.2f ms, p90 %.2f ms", cgs, len(byCGs[cgs]), median(byCGs[cgs]), percentile(byCGs[cgs], 0.90))
		}
		m.note("serve-mixed: open loop %d jobs in %.1f s (%d executed, %d hot), closed loop %d jobs in %.1f s; driver late p95 %.2f ms; op = one job, tail = p90 (due time to observed done, executed jobs)",
			len(open), openLen.Seconds(), len(execMs), len(hitMs), len(closed), closedLen.Seconds(), percentile(lateMs, 0.95))
		return nil
	}

	delta := func(key string) float64 { return after[key] - before[key] }
	m.set("http.submit_ms_p50", median(c.submitMs))
	m.set("http.submit_ms_p95", percentile(c.submitMs, 0.95))
	m.set("http.status_ms_p50", median(c.statusMs))
	m.set("serve.hit_ms_p50", median(hitMs))
	m.set("serve.queue_ms_p50", median(queueMs))
	m.set("admission.accepted", delta(`sunserver_admission_total{decision="accepted"}`))
	rejected := 0.0
	for key := range after {
		if strings.HasPrefix(key, "sunserver_admission_total{") && !strings.Contains(key, `"accepted"`) {
			rejected += delta(key)
		}
	}
	m.set("admission.rejected", rejected)
	m.set("jobstore.journal_entries", after[`sunserver_admission{name="journal_entries"}`])
	m.set("jobstore.replay_ms", 1000*median(restarts))
	m.set("serve.peak_rss_mb", serverRSS)
	m.set("driver.late_ms_p95", percentile(lateMs, 0.95))
	m.set("runner.exec_s", delta(`sunserver_pool_seconds_total{kind="exec"}`))
	m.set("runner.saved_s", delta(`sunserver_pool_seconds_total{kind="saved"}`))
	if done := delta(`sunserver_pool_jobs_total{state="done"}`); done > 0 {
		m.set("runner.cache_hit_frac", delta(`sunserver_pool_jobs_total{state="cache_hits"}`)/done)
	}
	m.set("runner.coalesced", delta(`sunserver_pool_jobs_total{state="coalesced"}`))
	m.set("host.trace_overhead_frac", overhead)
	setHostFractions(m, stacks)

	// Per-job setup, replayed span by span for each spec shape of the mix.
	shapes := make([]runner.Spec, len(gen.sc.CGs)*len(gen.sc.Variants))
	for i := range shapes {
		shapes[i] = gen.shape(i)
	}
	if err := setReplayedCases(m, shapes); err != nil {
		return err
	}
	m.note("serve-mixed traced: open loop %d jobs, closed loop %d jobs (every other segment profiled, %d samples); setup spans summed over the %d spec shapes",
		len(open), len(closed), len(stacks), len(shapes))
	return nil
}

func countDone(jobs []*serveJob) int {
	n := 0
	for _, j := range jobs {
		if j.failure == "" {
			n++
		}
	}
	return n
}

// serverProfile fetches a CPU profile of the server covering the next d.
func (c *serveClient) serverProfile(d time.Duration) ([]stack, error) {
	secs := int(d.Seconds())
	if secs < 1 {
		secs = 1
	}
	// A client of its own: the load connections stay exactly nproc.
	client := &http.Client{Timeout: d + 30*time.Second}
	resp, err := client.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", c.base, secs))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/pprof/profile: %d %s", resp.StatusCode, data)
	}
	return decodeProfile(data)
}

// checkAgainstDirect compares the server's result for a job with a direct
// experiments.Exec of the same spec; the simulated results must be equal.
func checkAgainstDirect(j *serveJob) error {
	var served struct {
		Result *runner.Result `json:"result"`
	}
	if err := json.Unmarshal(j.body, &served); err != nil || served.Result == nil {
		return fmt.Errorf("job %s: unreadable result: %v", j.id, err)
	}
	direct, err := experiments.Exec(context.Background(), j.spec)
	if err != nil {
		return err
	}
	got, err := json.Marshal(served.Result.Sim)
	if err != nil {
		return err
	}
	want, err := json.Marshal(direct.Sim)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("job %s (%s): served result differs from a direct run", j.id, j.spec)
	}
	return nil
}
