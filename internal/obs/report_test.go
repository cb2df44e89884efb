package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sunuintah/internal/perf"
	"sunuintah/internal/trace"
)

// feed drives a small deterministic two-rank workload through a sampler.
func feed(s *Sampler) {
	for r := 0; r < 2; r++ {
		p := s.Rank(r)
		p.QueueDepth(0, 8)
		p.Prepared(0, 0)
		p.MsgSent(1e-5, 4096, 6e-5)
		p.Gangs(2e-5, 1)
		p.DMA(2e-5, 1<<16)
		p.Mem(2e-5, 1<<20)
		p.QueueDelta(5e-5, -1)
		p.Gangs(5e-5, 0)
		if r == 1 {
			p.Fault(3e-5)
			p.Recovery(4e-5)
		}
	}
}

func TestSamplerReport(t *testing.T) {
	s := NewSampler(2)
	feed(s)
	rep := s.Report(1e-4)
	if rep.Samples == 0 || rep.IntervalSeconds != 1e-5 || len(rep.Ranks) != 2 {
		t.Fatalf("bad report header: %+v", rep)
	}
	r0, r1 := rep.Ranks[0], rep.Ranks[1]
	if r0.Rank != 0 || r1.Rank != 1 {
		t.Fatalf("rank order wrong: %d, %d", r0.Rank, r1.Rank)
	}
	// All tracks share the grid.
	n := len(r0.QueueDepth)
	for _, track := range [][]float64{r0.Prepared, r0.GangsBusy, r0.InflightMsgs,
		r0.InflightBytes, r0.DMABytes, r0.MemBytes, r1.Faults, r1.Recoveries} {
		if len(track) != n {
			t.Fatalf("track length %d != %d", len(track), n)
		}
	}
	// Fault-free rank omits fault tracks (omitempty keeps JSON lean).
	if r0.Faults != nil || r0.Recoveries != nil {
		t.Fatal("rank 0 should have no fault series")
	}
	// The in-flight message decrement lands at its sender-computed
	// arrival: up at 1e-5 (sample 2 covers t=2e-5), down by 6e-5.
	if r0.InflightMsgs[2] != 1 || r0.InflightMsgs[7] != 0 {
		t.Fatalf("inflight series wrong: %v", r0.InflightMsgs)
	}
	// Lazily created fault series backfill zeros before the first event.
	if r1.Faults[0] != 0 || r1.Faults[len(r1.Faults)-1] != 1 {
		t.Fatalf("fault series wrong: %v", r1.Faults)
	}
}

func TestReportDeterministicAcrossFeedOrder(t *testing.T) {
	mk := func(swap bool) []byte {
		s := NewSampler(2)
		// Same virtual instants, opposite hook call order — as happens
		// when shards execute an instant on different goroutines.
		if swap {
			s.Rank(1).QueueDepth(0, 4)
			s.Rank(0).QueueDepth(0, 8)
		} else {
			s.Rank(0).QueueDepth(0, 8)
			s.Rank(1).QueueDepth(0, 4)
		}
		s.Rank(0).QueueDelta(3e-5, -1)
		s.Rank(1).QueueDelta(3e-5, -1)
		b, err := json.Marshal(s.Report(1e-4))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := mk(false), mk(true); !reflect.DeepEqual(a, b) {
		t.Fatalf("report depends on feed order:\n%s\n%s", a, b)
	}
}

func TestReportFoldsOverlapAndRoofline(t *testing.T) {
	s := NewSampler(1)
	s.Rank(0).QueueDepth(0, 1)
	rep := s.Report(1e-4)

	rec := trace.New()
	rec.Add(trace.Event{Rank: 0, Kind: trace.KindKernel, Start: 0, End: 4})
	rec.Add(trace.Event{Rank: 0, Kind: trace.KindComm, Start: 1, End: 3})
	rep.AddOverlap(rec.Events(), 1)
	if len(rep.Overlap) != 1 {
		t.Fatalf("overlap rows: %d", len(rep.Overlap))
	}
	ov := rep.Overlap[0]
	if ov.KernelSeconds != 4 || ov.CommSeconds != 2 || ov.KernelCommOverlap != 2 {
		t.Fatalf("overlap fold wrong: %+v", ov)
	}

	rep.AddRoofline(perf.Roofline{PeakFlops: 16e9, MemBandwidth: 4e9}, 5.5, 0.34)
	rf := rep.Roofline
	if rf == nil || rf.PeakGflopsPerCG != 16 || rf.RidgeIntensity != 4 || rf.AchievedGflops != 5.5 {
		t.Fatalf("roofline fold wrong: %+v", rf)
	}

	var b strings.Builder
	rep.WriteTable(&b)
	out := b.String()
	for _, want := range []string{"flight recorder", "roofline", "rank", "kernel.s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestAddOverlapDistinctKinds: only the time a kernel and an MPE-work
// interval are open together on the same rank counts.
func TestAddOverlapDistinctKinds(t *testing.T) {
	var rep Report
	rep.AddOverlap([]trace.Event{
		{Rank: 0, Kind: trace.KindKernel, Start: 0, End: 10},
		{Rank: 0, Kind: trace.KindMPEWork, Start: 4, End: 6},
		{Rank: 0, Kind: trace.KindMPEWork, Start: 12, End: 14},
		{Rank: 1, Kind: trace.KindMPEWork, Start: 0, End: 10},
	}, 2)
	if got := rep.Overlap[0].KernelMPEOverlap; got != 2 {
		t.Fatalf("overlap = %v, want 2", got)
	}
	if got := rep.Overlap[1].KernelMPEOverlap; got != 0 {
		t.Fatalf("rank 1 overlap = %v, want 0", got)
	}
}

// TestAddOverlapAdjacentIntervalsDoNotCount: an interval closing at the
// instant another opens is not an overlap.
func TestAddOverlapAdjacentIntervalsDoNotCount(t *testing.T) {
	var rep Report
	rep.AddOverlap([]trace.Event{
		{Rank: 0, Kind: trace.KindKernel, Start: 0, End: 5},
		{Rank: 0, Kind: trace.KindMPEWork, Start: 5, End: 8},
		{Rank: 0, Kind: trace.KindComm, Start: 5, End: 6},
	}, 1)
	if ov := rep.Overlap[0]; ov.KernelMPEOverlap != 0 || ov.KernelCommOverlap != 0 {
		t.Fatalf("touching intervals overlap: %+v", ov)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	s := NewSampler(2)
	feed(s)
	rep := s.Report(1e-4)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("report JSON does not round-trip")
	}
}

func TestNilSamplerAndTable(t *testing.T) {
	var s *Sampler
	if s.Rank(0) != nil {
		t.Fatal("nil sampler must hand out nil probes")
	}
	s.Finalize(1)
	if s.Report(1) != nil {
		t.Fatal("nil sampler report must be nil")
	}
	var b strings.Builder
	var rep *Report
	rep.AddOverlap(nil, 1)
	rep.AddRoofline(perf.Roofline{}, 0, 0)
	rep.WriteTable(&b)
	if !strings.Contains(b.String(), "no report") {
		t.Fatalf("nil table output: %q", b.String())
	}
}
