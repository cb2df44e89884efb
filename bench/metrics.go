package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one metric of the benchmark. The two tables below are
// the single source of the names and units: BENCHMARK.json is generated
// from them (-manifest) and the smoke test checks the two stay equal.
// Per-layer metrics have no bound, so theirs is omitted from the JSON.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is BENCHMARK.json's run_seconds: the timed length of one run.
const runSeconds = 25

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"matrix-sweep", "the paper's 250-case evaluation matrix on the runner pool: many short simulations, per-case setup inside every case, no kernel numerics"},
	{"halo-steady", "steady-state stepping of one prebuilt 128-rank timing-only simulation on both engines: engine, handoff, mpisim and scheduler do all the work; setup and kernels bypassed"},
	{"functional-burgers", "real numerics on an 8.4M-cell grid at 8 ranks: kernel, tile copies, pack/unpack and warehouse dominate; engine and handoff work should not move it"},
	{"serve-mixed", "a sunserver subprocess driven over HTTP, open loop then closed loop, 25% hot-set hits: admission, journal, pool and cache with short jobs so serving overhead shows"},
}

// endToEnd are the metrics a user sees. Every workload reports every one of
// them in its own natural unit of work (README.md has the mapping): an op
// is a case on matrix-sweep, a timestep on halo-steady and
// functional-burgers, a job on serve-mixed. One bound serves a metric on all
// four workloads, and every bound is the largest the driver allows: on this
// shared 2-CPU host ten runs of unchanged code have spread matrix-sweep and
// serve-mixed, which cannot be reported at the reference host speed
// (calib.go), by up to 15% and 24% (README.md has the measured spreads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	// Setup replayed call by call (spans around the public entry points).
	{Name: "grid.level_ms", Unit: "ms", Better: "lower"},
	{Name: "loadbalancer.assign_ms", Unit: "ms", Better: "lower"},
	{Name: "taskgraph.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "taskgraph.compile_allocs", Unit: "count", Better: "lower"},
	{Name: "core.newsim_ms", Unit: "ms", Better: "lower"},
	{Name: "core.newsim_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.setup_frac", Unit: "fraction", Better: "lower"},
	// Host CPU time by package, folded from a CPU profile; sums to 1.
	{Name: "host.sim_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.scheduler_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.mpisim_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.athread_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.sw26010_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.dw_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.field_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.burgers_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.taskgraph_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.grid_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.obs_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.runner_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.runtime_sched_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.runtime_gc_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.other_frac", Unit: "fraction", Better: "lower"},
	// Exact counts per simulated step; a host-speed change leaves them identical.
	{Name: "sim.events_per_step", Unit: "count", Better: "lower"},
	{Name: "mpisim.bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "scheduler.tasks_per_step", Unit: "count", Better: "lower"},
	{Name: "sw26010.offloads_per_step", Unit: "count", Better: "lower"},
	{Name: "sw26010.dma_ops_per_step", Unit: "count", Better: "lower"},
	{Name: "sw26010.cells_per_step", Unit: "count", Better: "higher"},
	// Simulated (virtual-time) results; exact.
	{Name: "model.sim_s_per_step", Unit: "s", Better: "lower"},
	{Name: "model.gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "model.idle_frac", Unit: "fraction", Better: "lower"},
	{Name: "model.comm_frac", Unit: "fraction", Better: "lower"},
	{Name: "model.async_gain_pct", Unit: "%", Better: "higher"},
	{Name: "model.paper_err_pp", Unit: "pp", Better: "lower"},
	{Name: "burgers.linf_err", Unit: "abs", Better: "lower"},
	// Stepping, split by engine, and what one event costs end to end.
	{Name: "engine.serial_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.sharded_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.us_per_event", Unit: "us", Better: "lower"},
	// Each layer's public API timed alone: the unit cost the counts multiply.
	{Name: "sim.engine_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.mail_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "burgers.cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "field.pack_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "field.unpack_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "dw.swaps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "obs.overhead_frac", Unit: "fraction", Better: "lower"},
	// Runner pool and cache.
	{Name: "runner.exec_s", Unit: "s", Better: "lower"},
	{Name: "runner.saved_s", Unit: "s", Better: "higher"},
	{Name: "runner.cache_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "runner.coalesced", Unit: "count", Better: "higher"},
	{Name: "runner.hit_us_p50", Unit: "us", Better: "lower"},
	// Serving path, client-side spans plus /metrics and /healthz deltas.
	{Name: "http.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.submit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "http.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "admission.accepted", Unit: "count", Better: "higher"},
	{Name: "admission.rejected", Unit: "count", Better: "lower"},
	{Name: "jobstore.journal_entries", Unit: "count", Better: "lower"},
	{Name: "jobstore.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "driver.late_ms_p95", Unit: "ms", Better: "lower"},
	// Host context for reading the others.
	{Name: "host.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.speed_index", Unit: "ratio", Better: "higher"},
	{Name: "host.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
}

// declared reports whether name is in either metric table.
func declared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // static tables
	}
	return append(out, '\n')
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the driver's last-line JSON.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measured collects a run's numbers by name; finish turns them into the
// declared metric set, so a run can neither omit a declared metric nor
// report an undeclared one.
type measured struct {
	calib     *calibrator
	vals      map[string]float64
	notes     []string // human-readable context printed before the result line
	attempted int
	failures  []string
}

func newMeasured() (*measured, error) {
	calib, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	return &measured{calib: calib, vals: map[string]float64{}}, nil
}

func (m *measured) set(name string, v float64) { m.vals[name] = v }

func (m *measured) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation or correctness check.
func (m *measured) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

func (m *measured) finish(defs []metricDef, zeroOK bool) (*result, error) {
	res := &result{
		Correct:   len(m.failures) == 0,
		Attempted: m.attempted,
		Failed:    len(m.failures),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range m.vals {
		if !declared(name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}
