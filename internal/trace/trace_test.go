package trace

import (
	"reflect"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{Kind: KindKernel, Start: 0, End: 1})
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
	var sb strings.Builder
	r.WriteTimeline(&sb, 0, 10) // must not panic
}

func TestWriteTimelineFiltersAndLimits(t *testing.T) {
	r := New()
	for i := 0; i < 5; i++ {
		r.Add(Event{Rank: 0, Step: i, Kind: KindComm, Name: "x", Start: 0, End: 1})
	}
	r.Add(Event{Rank: 1, Kind: KindKernel, Name: "other", Start: 0, End: 1})
	var sb strings.Builder
	r.WriteTimeline(&sb, 0, 3)
	out := sb.String()
	if strings.Count(out, "comm") != 3 {
		t.Fatalf("timeline = %q", out)
	}
	if strings.Contains(out, "other") {
		t.Fatal("timeline leaked another rank's events")
	}
	// Rank 0 has 5 events, 3 shown; rank 1's event is not left over.
	if !strings.HasSuffix(out, "  ... (2 more events)\n") {
		t.Fatalf("timeline does not end with rank 0's 2 remaining events: %q", out)
	}
}

func TestWriteTimelineUnlimited(t *testing.T) {
	r := New()
	for i := 0; i < 4; i++ {
		r.Add(Event{Rank: 1, Step: i, Kind: KindKernel, Name: "k", Start: 0, End: 1})
	}
	r.Add(Event{Rank: 0, Kind: KindComm, Name: "other", Start: 0, End: 1})
	var sb strings.Builder
	r.WriteTimeline(&sb, 1, 0)
	out := sb.String()
	if strings.Count(out, "\n") != 4 || strings.Contains(out, "more events") || strings.Contains(out, "other") {
		t.Fatalf("maxEvents 0 should list all 4 of rank 1's events and nothing else: %q", out)
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: 1.5, End: 4}
	if e.Duration() != 2.5 {
		t.Fatalf("duration = %v", e.Duration())
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := New()
	r.Add(Event{Rank: 0, Kind: KindComm, Start: 1, End: 2})
	evs := r.Events()
	evs[0].Rank = 99
	if r.Events()[0].Rank != 0 {
		t.Fatal("Events handed out the live slice")
	}
}

func TestSortedCanonicalOrder(t *testing.T) {
	in := []Event{
		{Rank: 1, Step: 0, Kind: KindComm, Name: "b", Start: 2, End: 3},
		{Rank: 0, Step: 1, Kind: KindKernel, Name: "a", Start: 1, End: 4},
		{Rank: 0, Step: 0, Kind: KindKernel, Name: "a", Start: 1, End: 2},
		{Rank: 0, Step: 0, Kind: KindComm, Name: "z", Start: 1, End: 2},
	}
	got := Sorted(in)
	want := []Event{
		{Rank: 0, Step: 0, Kind: KindComm, Name: "z", Start: 1, End: 2},
		{Rank: 0, Step: 0, Kind: KindKernel, Name: "a", Start: 1, End: 2},
		{Rank: 0, Step: 1, Kind: KindKernel, Name: "a", Start: 1, End: 4},
		{Rank: 1, Step: 0, Kind: KindComm, Name: "b", Start: 2, End: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted = %v", got)
	}
	// Input untouched, and sorting any permutation converges.
	if in[0].Rank != 1 {
		t.Fatal("Sorted mutated its input")
	}
	again := Sorted(got)
	if !reflect.DeepEqual(again, want) {
		t.Fatal("Sorted not idempotent")
	}
}

func TestNewFromEventsRoundTrip(t *testing.T) {
	evs := []Event{
		{Rank: 0, Kind: KindKernel, Name: "k", Start: 0, End: 1},
		{Rank: 1, Kind: KindComm, Name: "c", Start: 1, End: 2},
	}
	r := NewFromEvents(evs)
	if !reflect.DeepEqual(r.Events(), evs) {
		t.Fatalf("round trip lost events: %v", r.Events())
	}
}
