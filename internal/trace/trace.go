// Package trace records scheduler activity on the virtual timeline: task
// selections, MPE bookkeeping, kernel offloads, MPI traffic. Recorders are
// optional — a nil *Recorder is safe to use and records nothing — and feed
// the timeline output of the asyncoverlap example and scheduler tests.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"sunuintah/internal/sim"
)

// Kind classifies a traced interval.
type Kind string

// Interval kinds recorded by the scheduler.
const (
	KindMPEWork Kind = "mpe"     // packing, unpacking, touches, BC fills
	KindKernel  Kind = "kernel"  // CPE cluster busy with an offloaded kernel
	KindMPEKern Kind = "mpekern" // kernel executed on the MPE (host mode)
	KindComm    Kind = "comm"    // MPI posting and testing
	KindReduce  Kind = "reduce"  // reductions
	KindIdle    Kind = "idle"    // scheduler polling with nothing to do

	// Fault-plane markers (zero-duration unless noted): injected faults and
	// the scheduler's recovery actions.
	KindFault    Kind = "fault"    // injected fault (drop, dup, stall, crash, ...)
	KindRecovery Kind = "recovery" // recovery action (resend, re-offload, MPE fallback)
)

// Event is one traced interval.
type Event struct {
	Rank  int
	Step  int
	Kind  Kind
	Name  string
	Start sim.Time
	End   sim.Time
}

// Duration returns End-Start.
func (e Event) Duration() sim.Time { return e.End - e.Start }

// Recorder accumulates events. The zero value is usable; a nil recorder
// discards everything. A recorder belongs to one simulation, whose ranks
// record one at a time, and is read once the run is over.
type Recorder struct {
	events []Event
}

// New creates an empty recorder.
func New() *Recorder { return &Recorder{} }

// NewFromEvents creates a recorder pre-loaded with the given events — the
// inverse of Events(), used to rehydrate a recorder from an exported
// Result timeline (for example to serve a Perfetto download of a stored
// job).
func NewFromEvents(events []Event) *Recorder {
	r := New()
	r.events = append(r.events, events...)
	return r
}

// Add records one interval. Safe on a nil receiver. Insertion order is
// host order — across shards, which run their windows in shard order, and
// across ranks running ahead of the calendar — so order-sensitive
// consumers sort; one rank's own events arrive in its program order
// (WriteTimeline shows one rank).
func (r *Recorder) Add(ev Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, ev)
}

// Events returns a copy of all recorded events in insertion order, which
// the caller may sort in place.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.events) == 0 {
		return nil
	}
	return slices.Clone(r.events)
}

// Sorted returns a copy of events in canonical order: (Start, End, Rank,
// Step, Kind, Name). Shards and ranks running ahead of the calendar
// append out of virtual-time order, so exported timelines must be
// canonicalised to stay byte-identical across -shards/-workers settings.
func Sorted(events []Event) []Event {
	out := make([]Event, len(events))
	copy(out, events)
	SortEvents(out)
	return out
}

// SortEvents sorts events in place into the same canonical order as
// Sorted. Callers that already own their slice (a Recorder.Events
// copy) use it to avoid a second copy of the whole timeline; the
// concrete-typed comparison also sorts several times faster than the
// reflection-based sort.Slice path, which matters because this sort is
// the biggest single post-processing cost of an observed run.
func SortEvents(events []Event) {
	slices.SortFunc(events, func(a, b Event) int {
		switch {
		case a.Start != b.Start:
			return cmp.Compare(a.Start, b.Start)
		case a.End != b.End:
			return cmp.Compare(a.End, b.End)
		case a.Rank != b.Rank:
			return a.Rank - b.Rank
		case a.Step != b.Step:
			return a.Step - b.Step
		case a.Kind != b.Kind:
			return strings.Compare(string(a.Kind), string(b.Kind))
		default:
			return strings.Compare(a.Name, b.Name)
		}
	})
}

// WriteTimeline renders a compact per-rank textual timeline, most useful
// for small runs.
func (r *Recorder) WriteTimeline(w io.Writer, rank int, maxEvents int) {
	if r == nil {
		return
	}
	n := 0
	for _, e := range r.events {
		if e.Rank != rank {
			continue
		}
		if maxEvents <= 0 || n < maxEvents {
			fmt.Fprintf(w, "  [%12.6f, %12.6f] step %2d %-8s %s\n",
				float64(e.Start)*1e3, float64(e.End)*1e3, e.Step, e.Kind, e.Name)
		}
		n++
	}
	if maxEvents > 0 && n > maxEvents {
		fmt.Fprintf(w, "  ... (%d more events)\n", n-maxEvents)
	}
}
