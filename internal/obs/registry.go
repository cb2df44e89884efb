package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a small host-side metrics registry with Prometheus text
// exposition. It backs the HTTP service's /metrics endpoint: counters,
// gauges and histograms keyed by label values (method/path/code,
// rank/step/kind, ...). Unlike the virtual-time Series, registry metrics
// are wall-clock operational telemetry and make no determinism promise.
//
// A nil *Registry hands out nil vectors, whose methods are no-ops — the
// zero-cost disabled recorder pattern shared with RankProbes.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf
	samples map[string]*metricSample
	order   []string // insertion keys, re-sorted on write
}

type metricSample struct {
	labelVals []string
	value     float64  // counter/gauge
	bucketN   []uint64 // histogram cumulative-by-write counts per bound
	sum       float64  // histogram sum
	count     uint64   // histogram observation count
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) familyFor(name, help, typ string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: labels, buckets: buckets,
		samples: make(map[string]*metricSample),
	}
	r.fams[name] = f
	return f
}

// sampleFor finds or creates the sample for the given label values.
// Callers hold r.mu.
func (f *family) sampleFor(labelVals []string) *metricSample {
	key := strings.Join(labelVals, "\x00")
	if s, ok := f.samples[key]; ok {
		return s
	}
	s := &metricSample{labelVals: append([]string(nil), labelVals...)}
	if f.typ == "histogram" {
		s.bucketN = make([]uint64, len(f.buckets))
	}
	f.samples[key] = s
	f.order = append(f.order, key)
	return s
}

// CounterVec is a monotone counter family. The Set escape hatch exists
// for scrape-time sync from counters owned elsewhere (the runner pool's
// atomics).
type CounterVec struct {
	reg *Registry
	fam *family
}

// CounterVec registers (or returns) a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{reg: r, fam: r.familyFor(name, help, "counter", nil, labels)}
}

// Inc adds 1 to the sample for the given label values.
func (v *CounterVec) Inc(labelVals ...string) { v.Add(1, labelVals...) }

// Add adds d (must be >= 0 to stay monotone) to the sample.
func (v *CounterVec) Add(d float64, labelVals ...string) {
	if v == nil {
		return
	}
	v.reg.mu.Lock()
	v.fam.sampleFor(labelVals).value += d
	v.reg.mu.Unlock()
}

// Set overwrites the counter value — only for mirroring an external
// monotone counter at scrape time.
func (v *CounterVec) Set(val float64, labelVals ...string) {
	if v == nil {
		return
	}
	v.reg.mu.Lock()
	v.fam.sampleFor(labelVals).value = val
	v.reg.mu.Unlock()
}

// GaugeVec is a set-anything gauge family.
type GaugeVec struct {
	reg *Registry
	fam *family
}

// GaugeVec registers (or returns) a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{reg: r, fam: r.familyFor(name, help, "gauge", nil, labels)}
}

// Set records the gauge value for the given label values.
func (v *GaugeVec) Set(val float64, labelVals ...string) {
	if v == nil {
		return
	}
	v.reg.mu.Lock()
	v.fam.sampleFor(labelVals).value = val
	v.reg.mu.Unlock()
}

// HistogramVec is a fixed-bucket histogram family.
type HistogramVec struct {
	reg *Registry
	fam *family
}

// HistogramVec registers (or returns) a histogram family with the given
// ascending upper bounds (+Inf is implicit).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &HistogramVec{reg: r, fam: r.familyFor(name, help, "histogram", b, labels)}
}

// Observe records one observation.
func (v *HistogramVec) Observe(val float64, labelVals ...string) {
	if v == nil {
		return
	}
	v.reg.mu.Lock()
	s := v.fam.sampleFor(labelVals)
	for i, ub := range v.fam.buckets {
		if val <= ub {
			s.bucketN[i]++
		}
	}
	s.sum += val
	s.count++
	v.reg.mu.Unlock()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, samples sorted by
// label values, histograms with cumulative buckets, +Inf, _sum, _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			s := f.samples[key]
			if err := writeSample(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, f *family, s *metricSample) error {
	switch f.typ {
	case "histogram":
		for i, ub := range f.buckets {
			lbl := labelString(f.labels, s.labelVals, "le", formatFloat(ub))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl, s.bucketN[i]); err != nil {
				return err
			}
		}
		lbl := labelString(f.labels, s.labelVals, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl, s.count); err != nil {
			return err
		}
		base := labelString(f.labels, s.labelVals, "", "")
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(s.sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, s.count)
		return err
	default:
		lbl := labelString(f.labels, s.labelVals, "", "")
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, lbl, formatFloat(s.value))
		return err
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram "le" bound); empty label sets render as nothing.
func labelString(names, vals []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(vals) {
			v = vals[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
