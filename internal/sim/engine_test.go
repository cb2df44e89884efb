package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(3, func() { got = append(got, e.Now()) })
	e.Schedule(1, func() { got = append(got, e.Now()) })
	e.Schedule(2, func() { got = append(got, e.Now()) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %v, want 3", end)
	}
	want := []Time{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: %v", i, got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Schedule(1, func() {
		trace = append(trace, "a")
		e.Schedule(1, func() { trace = append(trace, "b") })
		e.Schedule(0, func() { trace = append(trace, "a0") })
	})
	e.Run()
	want := []string{"a", "a0", "b"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("now = %v, want 2", e.Now())
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2, func() {
		e.Schedule(-5, func() {
			fired = true
			if e.Now() != 2 {
				t.Errorf("negative-delay event at %v, want 2", e.Now())
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("clamped event did not fire")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.Schedule(1, func() { fired = true })
	if !h.Cancel() {
		t.Fatal("first cancel should report live event")
	}
	if h.Cancel() {
		t.Fatal("second cancel should report dead event")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	e.Run()
	if h.Cancel() {
		t.Fatal("cancel after fire should report dead event")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	end := e.RunUntil(2)
	if end != 2 {
		t.Fatalf("end = %v, want 2", end)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 1,2", fired)
	}
	// Resume to the end.
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after resume fired = %v, want 4 events", fired)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt)", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestPendingEventsExcludesCancelled(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	h := e.Schedule(2, func() {})
	h.Cancel()
	if got := pendingEvents(e); got != 1 {
		t.Fatalf("pending events = %d, want 1", got)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine's final clock equals the maximum delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			d := Time(r) / 1000
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		var maxd Time
		for _, r := range raw {
			if d := Time(r) / 1000; d > maxd {
				maxd = d
			}
		}
		return end == maxd && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved schedule/cancel sequences never fire cancelled
// events and always fire live ones.
func TestPropertyCancelNeverFires(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type rec struct {
			h     EventHandle
			fired *bool
		}
		var recs []rec
		var cancelled []int
		for i := 0; i < int(n); i++ {
			fired := new(bool)
			h := e.Schedule(Time(rng.Intn(100)), func() { *fired = true })
			recs = append(recs, rec{h, fired})
			if rng.Intn(3) == 0 {
				k := rng.Intn(len(recs))
				recs[k].h.Cancel()
				cancelled = append(cancelled, k)
			}
		}
		e.Run()
		isCancelled := map[int]bool{}
		for _, k := range cancelled {
			isCancelled[k] = true
		}
		for i, r := range recs {
			if isCancelled[i] && *r.fired {
				return false
			}
			if !isCancelled[i] && !*r.fired {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	runOnce := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(Time(i%7), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// pendingEvents counts the live calendar entries: cancelled events still
// in the heap are not counted.
func pendingEvents(e *Engine) int {
	n := 0
	for _, ev := range e.queue.evs {
		if !ev.cancelled {
			n++
		}
	}
	return n
}
