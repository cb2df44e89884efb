package obs

import (
	"fmt"
	"io"
	"sort"

	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/trace"
)

// RankSeries is one rank's committed sample tracks. All tracks share the
// report's grid (same interval, same length); Faults/Recoveries are
// omitted for fault-free runs.
type RankSeries struct {
	Rank          int       `json:"rank"`
	QueueDepth    []float64 `json:"queueDepth,omitempty"`
	Prepared      []float64 `json:"prepared,omitempty"`
	GangsBusy     []float64 `json:"gangsBusy,omitempty"`
	InflightMsgs  []float64 `json:"inflightMsgs,omitempty"`
	InflightBytes []float64 `json:"inflightBytes,omitempty"`
	DMABytes      []float64 `json:"dmaBytes,omitempty"`
	MemBytes      []float64 `json:"memBytes,omitempty"`
	Faults        []float64 `json:"faults,omitempty"`
	Recoveries    []float64 `json:"recoveries,omitempty"`
}

// RankOverlap folds the trace recorder's interval statistics for one
// rank: total busy time by class and how much of the kernel time was
// hidden under communication or MPE work (the paper's Table VI metric).
type RankOverlap struct {
	Rank          int     `json:"rank"`
	KernelSeconds float64 `json:"kernelSeconds"`
	MPEKernSecs   float64 `json:"mpeKernelSeconds,omitempty"`
	MPEWorkSecs   float64 `json:"mpeWorkSeconds"`
	CommSeconds   float64 `json:"commSeconds"`
	IdleSeconds   float64 `json:"idleSeconds"`
	// KernelCommOverlap is virtual time where an offloaded kernel and
	// communication were in flight together; KernelMPEOverlap likewise
	// for kernel + MPE-side work.
	KernelCommOverlap float64 `json:"kernelCommOverlapSeconds"`
	KernelMPEOverlap  float64 `json:"kernelMpeOverlapSeconds"`
}

// RooflineReport places the achieved rate on the machine's roofline.
type RooflineReport struct {
	PeakGflopsPerCG float64 `json:"peakGflopsPerCG"`
	MemBandwidthGBs float64 `json:"memBandwidthGBs"`
	RidgeIntensity  float64 `json:"ridgeIntensity"`
	AchievedGflops  float64 `json:"achievedGflops"`
	Efficiency      float64 `json:"efficiency"`
}

// Report is the run's flight-recorder output: the per-rank virtual-time
// series plus the folded overlap and roofline summaries. It is attached
// to core's Result and is byte-identical across -shards and -workers
// settings for the same Spec.
type Report struct {
	IntervalSeconds float64         `json:"intervalSeconds"`
	EndSeconds      float64         `json:"endSeconds"`
	Samples         int             `json:"samples"`
	Ranks           []RankSeries    `json:"ranks"`
	Overlap         []RankOverlap   `json:"overlap,omitempty"`
	Roofline        *RooflineReport `json:"roofline,omitempty"`
	CritPath        *CritPathReport `json:"critPath,omitempty"`
}

// Report finalizes every series at end and assembles the sampled half of
// the report. Overlap and roofline sections are folded in by the caller
// via AddOverlap/AddRoofline (they live in trace/perf, not here).
func (s *Sampler) Report(end sim.Time) *Report {
	if s == nil {
		return nil
	}
	s.Finalize(end)
	rep := &Report{EndSeconds: float64(end)}
	for _, p := range s.ranks {
		rep.Ranks = append(rep.Ranks, RankSeries{
			Rank:          p.rank,
			QueueDepth:    p.queue.Samples(),
			Prepared:      p.prepared.Samples(),
			GangsBusy:     p.gangs.Samples(),
			InflightMsgs:  p.inflight.Samples(),
			InflightBytes: p.inflightB.Samples(),
			DMABytes:      p.dma.Samples(),
			MemBytes:      p.mem.Samples(),
			Faults:        p.faults.Samples(),
			Recoveries:    p.recov.Samples(),
		})
		// All eagerly created series decimate in lockstep (same grid,
		// same push count), so any rank's queue track carries the
		// report-wide interval and sample count.
		rep.IntervalSeconds = p.queue.Interval()
		if n := len(rep.Ranks[len(rep.Ranks)-1].QueueDepth); n > rep.Samples {
			rep.Samples = n
		}
	}
	return rep
}

// AddOverlap folds per-rank interval statistics from the recorded trace
// events (any order; the caller usually hands the same canonical slice
// the critical path walks, so the whole report costs one snapshot).
//
// One pass accumulates every rank's totals and the two overlap pairs
// share one per-rank edge sweep, so the cost is one pass over the event
// list whatever the rank count (bench's obs.overhead_frac metric
// measures it).
func (r *Report) AddOverlap(events []trace.Event, nRanks int) {
	if r == nil {
		return
	}
	r.Overlap = r.Overlap[:0]
	for rank := 0; rank < nRanks; rank++ {
		r.Overlap = append(r.Overlap, RankOverlap{Rank: rank})
	}

	// Edge sweep per rank over the three overlap-relevant kinds. delta
	// sorts close (-1) before open (+1) at equal times so adjacent
	// intervals do not count as overlapping.
	type edge struct {
		t     sim.Time
		kind  int8 // 0 kernel, 1 comm, 2 mpe-work
		delta int8
	}
	perRank := make([][]edge, nRanks)
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= nRanks {
			continue
		}
		ov := &r.Overlap[e.Rank]
		var kind int8
		switch e.Kind {
		case trace.KindKernel:
			ov.KernelSeconds += float64(e.Duration())
			kind = 0
		case trace.KindComm:
			ov.CommSeconds += float64(e.Duration())
			kind = 1
		case trace.KindMPEWork:
			ov.MPEWorkSecs += float64(e.Duration())
			kind = 2
		case trace.KindMPEKern:
			ov.MPEKernSecs += float64(e.Duration())
			continue
		case trace.KindIdle:
			ov.IdleSeconds += float64(e.Duration())
			continue
		default:
			continue
		}
		perRank[e.Rank] = append(perRank[e.Rank],
			edge{e.Start, kind, +1}, edge{e.End, kind, -1})
	}
	for rank, edges := range perRank {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].t != edges[j].t {
				return edges[i].t < edges[j].t
			}
			return edges[i].delta < edges[j].delta
		})
		var open [3]int
		var since sim.Time
		ov := &r.Overlap[rank]
		for _, ed := range edges {
			if open[0] > 0 {
				if open[1] > 0 {
					ov.KernelCommOverlap += float64(ed.t - since)
				}
				if open[2] > 0 {
					ov.KernelMPEOverlap += float64(ed.t - since)
				}
			}
			open[ed.kind] += int(ed.delta)
			since = ed.t
		}
	}
}

// AddRoofline folds the machine roofline and the achieved aggregate rate.
func (r *Report) AddRoofline(roof perf.Roofline, achievedGflops, efficiency float64) {
	if r == nil {
		return
	}
	r.Roofline = &RooflineReport{
		PeakGflopsPerCG: roof.PeakFlops / 1e9,
		MemBandwidthGBs: roof.MemBandwidth / 1e9,
		RidgeIntensity:  roof.RidgeIntensity(),
		AchievedGflops:  achievedGflops,
		Efficiency:      efficiency,
	}
}

// WriteTable renders the report as a compact human-readable table.
func (r *Report) WriteTable(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "no report collected")
		return
	}
	fmt.Fprintf(w, "flight recorder: %d samples @ %.3g s virtual, run end %.6g s\n",
		r.Samples, r.IntervalSeconds, r.EndSeconds)
	if r.Roofline != nil {
		rf := r.Roofline
		fmt.Fprintf(w, "roofline: peak %.1f Gflop/s/CG, mem %.1f GB/s, ridge %.1f flop/B; achieved %.2f Gflop/s (%.1f%% eff)\n",
			rf.PeakGflopsPerCG, rf.MemBandwidthGBs, rf.RidgeIntensity,
			rf.AchievedGflops, rf.Efficiency*100)
	}
	fmt.Fprintf(w, "%4s %9s %9s %9s %10s %12s %11s %9s %9s\n",
		"rank", "q.mean", "q.max", "gang.mean", "infl.mean", "dma.last", "mem.peak", "faults", "recov")
	for _, rs := range r.Ranks {
		fmt.Fprintf(w, "%4d %9.2f %9.0f %9.2f %10.2f %12.0f %11.0f %9.0f %9.0f\n",
			rs.Rank,
			mean(rs.QueueDepth), maxOf(rs.QueueDepth),
			mean(rs.GangsBusy), mean(rs.InflightMsgs),
			last(rs.DMABytes), maxOf(rs.MemBytes),
			last(rs.Faults), last(rs.Recoveries))
	}
	if len(r.Overlap) > 0 {
		fmt.Fprintf(w, "%4s %10s %10s %10s %10s %12s %12s\n",
			"rank", "kernel.s", "mpe.s", "comm.s", "idle.s", "kern+comm.s", "kern+mpe.s")
		for _, ov := range r.Overlap {
			fmt.Fprintf(w, "%4d %10.3g %10.3g %10.3g %10.3g %12.3g %12.3g\n",
				ov.Rank, ov.KernelSeconds, ov.MPEWorkSecs, ov.CommSeconds,
				ov.IdleSeconds, ov.KernelCommOverlap, ov.KernelMPEOverlap)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
