package obs

import (
	"fmt"
	"io"
	"sort"

	"sunuintah/internal/trace"
)

// Critical-path categories, in fixed report order. DMA time is not a
// distinct trace kind — transfer stalls are folded into the interval that
// issued them (cpe-kernel for offloaded kernels, mpe-serial for host-side
// packing), as in the recorder itself.
const (
	CatCPEKernel = "cpe-kernel"        // CPE cluster busy with an offloaded kernel (incl. DMA)
	CatMPEKernel = "mpe-kernel"        // kernel executed on the MPE (host mode)
	CatMPESerial = "mpe-serial"        // MPE packing/unpacking/touches/BC fills
	CatComm      = "comm"              // MPI posting, testing, halo waits
	CatReduce    = "reduce"            // reductions
	CatWait      = "wait"              // blocked: idle intervals and uncovered gaps on the chain
	CatRecovery  = "rollback-recovery" // fault-plane recovery: checkpoint rollback and redone work
)

// critCategories is the fixed render order.
var critCategories = []string{
	CatCPEKernel, CatMPEKernel, CatMPESerial, CatComm, CatReduce, CatWait, CatRecovery,
}

func critCategory(k trace.Kind) string {
	switch k {
	case trace.KindKernel:
		return CatCPEKernel
	case trace.KindMPEKern:
		return CatMPEKernel
	case trace.KindMPEWork:
		return CatMPESerial
	case trace.KindComm:
		return CatComm
	case trace.KindReduce:
		return CatReduce
	case trace.KindFault, trace.KindRecovery:
		return CatRecovery
	default:
		return CatWait
	}
}

// CritSegment is one merged stretch of the critical chain: consecutive
// attributions on the same rank and category.
type CritSegment struct {
	Rank         int     `json:"rank"`
	Category     string  `json:"category"`
	Name         string  `json:"name,omitempty"` // longest contributing interval's name
	StartSeconds float64 `json:"startSeconds"`
	EndSeconds   float64 `json:"endSeconds"`
	Seconds      float64 `json:"seconds"`
}

// CritCategory is one category's share of the chain.
type CritCategory struct {
	Category string  `json:"category"`
	Seconds  float64 `json:"seconds"`
	Share    float64 `json:"share"` // fraction of the makespan; shares sum to 1
}

// CritPathReport is the longest weighted chain through the recorded
// trace's happens-before structure, attributed to categories. The walk
// telescopes — every attributed span abuts the next — so category seconds
// sum exactly to the makespan: the table answers "this is the X% you must
// attack next".
type CritPathReport struct {
	StartSeconds    float64        `json:"startSeconds"`
	EndSeconds      float64        `json:"endSeconds"`
	MakespanSeconds float64        `json:"makespanSeconds"`
	Categories      []CritCategory `json:"categories"`
	TopSegments     []CritSegment  `json:"topSegments,omitempty"`
	Segments        int            `json:"segments"` // merged chain segments
	Hops            int            `json:"hops"`     // rank switches along the chain
}

// rankLane is one rank's positive-duration intervals in canonical order
// (trace.Sorted: ascending Start), with a running prefix maximum of End
// for early exit in the covering search.
type rankLane struct {
	rank   int
	evs    []trace.Event
	prefix []float64 // prefix[i] = max End over evs[0..i]
	byEnd  []int     // event indices sorted by (End, canonical position)
}

// CriticalPath extracts the critical chain from a canonically sorted
// event timeline (trace.Sorted order; CriticalPath re-sorts defensively).
// Deterministic: the walk is a pure function of the event multiset, so
// the report inherits the trace's byte-identity across shard and worker
// counts. Returns nil for an empty (or all zero-duration) timeline.
func CriticalPath(events []trace.Event, topK int) *CritPathReport {
	evs := trace.Sorted(events)
	lanes := map[int]*rankLane{}
	var order []int
	begin, end := 0.0, 0.0
	endRank := -1
	first := true
	for _, e := range evs {
		if e.End <= e.Start {
			continue // zero-duration markers cannot carry chain time
		}
		if first || float64(e.Start) < begin {
			begin = float64(e.Start)
		}
		if first || float64(e.End) > end {
			end = float64(e.End)
			endRank = e.Rank
		}
		first = false
		ln := lanes[e.Rank]
		if ln == nil {
			ln = &rankLane{rank: e.Rank}
			lanes[e.Rank] = ln
			order = append(order, e.Rank)
		}
		ln.evs = append(ln.evs, e)
	}
	if endRank < 0 {
		return nil
	}
	sort.Ints(order)
	for _, r := range order {
		ln := lanes[r]
		ln.prefix = make([]float64, len(ln.evs))
		m := 0.0
		for i, e := range ln.evs {
			if f := float64(e.End); f > m {
				m = f
			}
			ln.prefix[i] = m
		}
		ln.byEnd = make([]int, len(ln.evs))
		for i := range ln.byEnd {
			ln.byEnd[i] = i
		}
		sort.SliceStable(ln.byEnd, func(a, b int) bool {
			return ln.evs[ln.byEnd[a]].End < ln.evs[ln.byEnd[b]].End
		})
	}

	// Backward walk from the makespan end. At each step the chain is at
	// (rank, t): the tightest interval still open on that rank at t
	// carries the span back to its start; a blocked rank hands the chain
	// to the globally latest interval finishing strictly before t (the
	// enabling predecessor), attributing the blocked span as wait. Both
	// moves strictly decrease t, so the walk terminates; the cap is a
	// defensive backstop only.
	var segs []CritSegment
	attribute := func(rank int, cat, name string, from, to float64) {
		if to <= from {
			return
		}
		if n := len(segs); n > 0 && segs[n-1].Rank == rank && segs[n-1].Category == cat &&
			segs[n-1].StartSeconds == to {
			s := &segs[n-1]
			s.StartSeconds = from
			s.Seconds = s.EndSeconds - from
			if name != "" && to-from > s.Seconds/2 {
				s.Name = name
			}
			return
		}
		segs = append(segs, CritSegment{Rank: rank, Category: cat, Name: name,
			StartSeconds: from, EndSeconds: to, Seconds: to - from})
	}
	r, t := endRank, end
	for iter := 0; t > begin; iter++ {
		if iter > 4*len(evs)+8 {
			attribute(r, CatWait, "", begin, t)
			break
		}
		ln := lanes[r]
		// Tightest covering interval on r: Start < t, End >= t, latest
		// Start (innermost open activity — the chain's "top of stack").
		cover := -1
		if ln != nil {
			i := sort.Search(len(ln.evs), func(i int) bool {
				return float64(ln.evs[i].Start) >= t
			}) - 1
			if i >= 0 && ln.prefix[i] >= t {
				for j := i; j >= 0; j-- {
					if float64(ln.evs[j].End) >= t {
						cover = j
						break
					}
				}
			}
		}
		if cover >= 0 {
			e := ln.evs[cover]
			attribute(r, critCategory(e.Kind), e.Name, float64(e.Start), t)
			t = float64(e.Start)
			continue
		}
		// Blocked: find the enabling predecessor — over all ranks, the
		// interval with the latest End strictly before t; ties break to
		// the lowest rank (order is ascending and the comparison strict).
		br := -1
		bEnd := 0.0
		for _, rk := range order {
			l := lanes[rk]
			p := sort.Search(len(l.byEnd), func(i int) bool {
				return float64(l.evs[l.byEnd[i]].End) >= t
			}) - 1
			if p < 0 {
				continue
			}
			if f := float64(l.evs[l.byEnd[p]].End); br < 0 || f > bEnd {
				br, bEnd = rk, f
			}
		}
		if br < 0 {
			attribute(r, CatWait, "", begin, t)
			break
		}
		attribute(r, CatWait, "", bEnd, t)
		r = br
		t = bEnd
	}

	rep := &CritPathReport{StartSeconds: begin, EndSeconds: end, MakespanSeconds: end - begin}
	// The walk appended segments back-to-front; flip to chronological.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	rep.Segments = len(segs)
	total := 0.0
	sums := map[string]float64{}
	for i, s := range segs {
		sums[s.Category] += s.Seconds
		total += s.Seconds
		if i > 0 && segs[i-1].Rank != s.Rank {
			rep.Hops++
		}
	}
	if total <= 0 {
		total = rep.MakespanSeconds
	}
	for _, cat := range critCategories {
		sec := sums[cat]
		rep.Categories = append(rep.Categories, CritCategory{
			Category: cat, Seconds: sec, Share: sec / total})
	}
	if topK <= 0 {
		topK = 5
	}
	top := append([]CritSegment(nil), segs...)
	sort.SliceStable(top, func(a, b int) bool {
		if top[a].Seconds != top[b].Seconds {
			return top[a].Seconds > top[b].Seconds
		}
		return top[a].StartSeconds < top[b].StartSeconds
	})
	if len(top) > topK {
		top = top[:topK]
	}
	rep.TopSegments = top
	return rep
}

// AddCriticalPath folds the chain analysis into the report. Like
// AddOverlap, the trace lives outside obs, so the caller hands the
// events in.
func (r *Report) AddCriticalPath(events []trace.Event, topK int) {
	if r == nil {
		return
	}
	r.CritPath = CriticalPath(events, topK)
}

// WriteCriticalPath renders the chain breakdown as a compact table.
func (r *Report) WriteCriticalPath(w io.Writer) {
	if r == nil || r.CritPath == nil {
		fmt.Fprintln(w, "no critical path (trace not recorded)")
		return
	}
	cp := r.CritPath
	fmt.Fprintf(w, "critical path: %.6g s makespan, %d segments, %d rank hops\n",
		cp.MakespanSeconds, cp.Segments, cp.Hops)
	fmt.Fprintf(w, "%-18s %12s %7s\n", "category", "seconds", "share")
	sum := 0.0
	for _, c := range cp.Categories {
		sum += c.Share
		fmt.Fprintf(w, "%-18s %12.6g %6.1f%%\n", c.Category, c.Seconds, c.Share*100)
	}
	fmt.Fprintf(w, "%-18s %12.6g %6.1f%%\n", "total", cp.MakespanSeconds, sum*100)
	if len(cp.TopSegments) > 0 {
		fmt.Fprintf(w, "top chain segments:\n")
		fmt.Fprintf(w, "%4s %-18s %-24s %12s %12s\n", "rank", "category", "name", "start.s", "seconds")
		for _, s := range cp.TopSegments {
			name := s.Name
			if name == "" {
				name = "-"
			}
			fmt.Fprintf(w, "%4d %-18s %-24s %12.6g %12.6g\n",
				s.Rank, s.Category, name, s.StartSeconds, s.Seconds)
		}
	}
}
