package obs

import (
	"strings"
	"testing"
)

func TestRegistryPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.CounterVec("http_requests_total", "Requests served.", "method", "path", "code")
	reqs.Inc("GET", "/metrics", "200")
	reqs.Inc("GET", "/metrics", "200")
	reqs.Inc("POST", "/run", "202")
	up := reg.GaugeVec("uptime_seconds", "Process uptime.")
	up.Set(12.5)
	lat := reg.HistogramVec("request_seconds", "Request latency.", []float64{0.01, 0.3, 1}, "path")
	lat.Observe(0.25, "/run")
	lat.Observe(0.5, "/run")
	lat.Observe(5, "/run")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP http_requests_total Requests served.",
		"# TYPE http_requests_total counter",
		`http_requests_total{method="GET",path="/metrics",code="200"} 2`,
		`http_requests_total{method="POST",path="/run",code="202"} 1`,
		"# TYPE uptime_seconds gauge",
		"uptime_seconds 12.5",
		"# TYPE request_seconds histogram",
		`request_seconds_bucket{path="/run",le="0.01"} 0`,
		`request_seconds_bucket{path="/run",le="0.3"} 1`,
		`request_seconds_bucket{path="/run",le="1"} 2`,
		`request_seconds_bucket{path="/run",le="+Inf"} 3`,
		`request_seconds_sum{path="/run"} 5.75`,
		`request_seconds_count{path="/run"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "http_requests_total") > strings.Index(out, "uptime_seconds") {
		t.Error("families not sorted by name")
	}
	// Every non-comment line must be "name{...} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("weird_total", "", "v").Inc("a\"b\\c\nd")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `weird_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong, got:\n%s\nwant %s", b.String(), want)
	}
}

func TestRegistryCounterSetMirrors(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("pool_done_total", "Finished jobs.")
	c.Set(7)
	c.Set(9)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pool_done_total 9\n") {
		t.Fatalf("got:\n%s", b.String())
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var reg *Registry
	reg.CounterVec("x", "").Inc("a")
	reg.GaugeVec("y", "").Set(1)
	reg.HistogramVec("z", "", []float64{1}).Observe(2)
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var cv *CounterVec
	cv.Add(1)
	var gv *GaugeVec
	gv.Set(1)
	var hv *HistogramVec
	hv.Observe(1)
}
