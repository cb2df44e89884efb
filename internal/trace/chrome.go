package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format ("traceEvents"
// array, "X" complete events), loadable in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name     string            `json:"name"`
	Category string            `json:"cat"`
	Phase    string            `json:"ph"`
	TimeUS   float64           `json:"ts"`
	DurUS    float64           `json:"dur"`
	PID      int               `json:"pid"`
	TID      int               `json:"tid"`
	Args     map[string]string `json:"args,omitempty"`
}

// laneOf maps an interval kind to a per-rank display lane: the MPE thread
// (bookkeeping, communication, host kernels) versus the CPE cluster.
func laneOf(k Kind) int {
	switch k {
	case KindKernel:
		return 1 // CPE cluster lane
	case KindFault, KindRecovery:
		return 2 // fault-plane lane
	default:
		return 0 // MPE lane
	}
}

// WriteChromeTrace serialises the recorder in the Chrome trace-event JSON
// format: one process per rank, lane 0 for the MPE and lane 1 for the CPE
// cluster. Virtual seconds map to microseconds of trace time. Events are
// written in canonical order (SortEvents): ranks record in host order,
// which depends on the engine and on how far each rank runs ahead of the
// calendar.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := []chromeEvent{}
	if r != nil {
		sorted := r.Events()
		SortEvents(sorted)
		for _, e := range sorted {
			events = append(events, chromeEvent{
				Name:     e.Name,
				Category: string(e.Kind),
				Phase:    "X",
				TimeUS:   float64(e.Start) * 1e6,
				DurUS:    float64(e.Duration()) * 1e6,
				PID:      e.Rank,
				TID:      laneOf(e.Kind),
				Args:     map[string]string{"step": fmt.Sprint(e.Step)},
			})
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
