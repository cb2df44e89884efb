package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSeriesLazyCommit(t *testing.T) {
	s := NewSeries(1, 64)
	s.Observe(0.5, 10)
	s.Observe(2.5, 20)
	s.Finalize(5)
	want := []float64{0, 10, 10, 20, 20, 20} // grid instants 0..5
	if got := s.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

// An update exactly on a grid instant must be reflected in that instant's
// sample: the sample is committed only once a strictly later transition
// (or Finalize) proves all same-instant updates have been seen.
func TestSeriesGridInstantUpdateIncluded(t *testing.T) {
	s := NewSeries(1, 64)
	s.Observe(1, 5)
	s.Add(1, 2) // second update at the same instant
	s.Finalize(2)
	want := []float64{0, 7, 7}
	if got := s.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

// Same-instant updates must commute in their committed effect: the
// sharded engine executes one virtual instant's events in arbitrary wall
// order, and the sampled series must not depend on it.
func TestSeriesSameInstantOrderInvariance(t *testing.T) {
	run := func(deltas []float64) []float64 {
		s := NewSeries(1, 64)
		for _, d := range deltas {
			s.Add(3.0, d)
		}
		s.Finalize(6)
		return s.Samples()
	}
	a := run([]float64{+1, -1, +2})
	b := run([]float64{+2, +1, -1})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("order-dependent samples: %v vs %v", a, b)
	}
}

func TestSeriesFutureTransition(t *testing.T) {
	s := NewSeries(1, 64)
	s.Add(0, 1)         // message posted at t=0
	s.AddAt(0, 2.5, -1) // lands at t=2.5
	s.Finalize(4)
	want := []float64{1, 1, 1, 0, 0}
	if got := s.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

func TestSeriesFutureTransitionClampedToNow(t *testing.T) {
	s := NewSeries(1, 64)
	s.AddAt(3, 1, 5) // "future" instant in the past clamps to t=3
	s.Finalize(4)
	want := []float64{0, 0, 0, 5, 5}
	if got := s.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

func TestSeriesDecimation(t *testing.T) {
	s := NewSeries(1, 8)
	for i := 0; i < 40; i++ {
		s.Observe(float64(i)+0.5, float64(i))
	}
	s.Finalize(40)
	if s.Interval() <= 1 {
		t.Fatalf("interval did not grow: %v", s.Interval())
	}
	got := s.Samples()
	if len(got) > 8 {
		t.Fatalf("samples exceed cap: %d", len(got))
	}
	// Every surviving sample must still sit on the coarse grid with the
	// value that held there: sample k at time k*interval has the value of
	// the last Observe before it, i.e. time-1 (Observe at i+0.5 sets i).
	iv := s.Interval()
	for k, v := range got {
		tk := float64(k) * iv
		want := tk - 1
		if tk == 0 {
			want = 0
		}
		if v != want {
			t.Fatalf("sample %d (t=%v) = %v, want %v (interval %v, all %v)", k, tk, v, want, iv, got)
		}
	}
}

func TestSeriesDecimationLockstep(t *testing.T) {
	// Two series on the same grid fed transitions at different times must
	// decimate at the same pushes and end with identical grids.
	a, b := NewSeries(1, 8), NewSeries(1, 8)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		a.Add(float64(i)+rng.Float64(), 1)
		b.Observe(float64(i)+rng.Float64(), float64(i))
	}
	a.Finalize(100)
	b.Finalize(100)
	if a.Interval() != b.Interval() {
		t.Fatalf("intervals diverged: %v vs %v", a.Interval(), b.Interval())
	}
	if len(a.Samples()) != len(b.Samples()) {
		t.Fatalf("lengths diverged: %d vs %d", len(a.Samples()), len(b.Samples()))
	}
}

func TestSeriesRefinalize(t *testing.T) {
	// A checkpointed run finalizes at each segment boundary and continues.
	s := NewSeries(1, 64)
	s.Observe(0.5, 1)
	s.Finalize(2)
	s.Observe(3.5, 2)
	s.Finalize(5)
	want := []float64{0, 1, 1, 1, 2, 2}
	if got := s.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	s.Observe(1, 2)
	s.Add(1, 2)
	s.AddAt(1, 2, 3)
	s.Finalize(10)
	if s.Samples() != nil || s.Interval() != 0 {
		t.Fatal("nil series must be inert")
	}
}

func TestSeriesOddCapRoundsUp(t *testing.T) {
	s := NewSeries(1, 7)
	if s.max != 8 {
		t.Fatalf("max = %d, want 8", s.max)
	}
}

// Filling the buffer to exactly its capacity must not decimate; the very
// next committed instant must. The boundary matters because the stride
// doubling assumes overflow happens on an even kept-count.
func TestSeriesDecimationExactBoundary(t *testing.T) {
	s := NewSeries(1, 8)
	for i := 0; i < 7; i++ {
		s.Observe(float64(i)+0.5, float64(i))
	}
	s.Finalize(7) // grid instants 0..7: exactly the cap
	if s.Interval() != 1 {
		t.Fatalf("interval = %v at exact capacity, want 1", s.Interval())
	}
	if got := len(s.Samples()); got != 8 {
		t.Fatalf("samples = %d at exact capacity, want 8", got)
	}
	s.Observe(7.5, 7)
	s.Finalize(8) // one instant past the cap: first decimation
	if s.Interval() != 2 {
		t.Fatalf("interval = %v after overflow, want 2", s.Interval())
	}
	got := s.Samples()
	if len(got) > 8 {
		t.Fatalf("samples exceed cap after overflow: %d", len(got))
	}
	if last := got[len(got)-1]; last != 7 {
		t.Fatalf("last sample = %v, want 7 (value holding at t=8)", last)
	}
}

// A single-sample series (one grid instant committed) must survive both
// sampling and a would-be decimation pass untouched.
func TestSeriesSingleSample(t *testing.T) {
	s := NewSeries(1, 8)
	s.Observe(0, 5)
	s.Finalize(0)
	want := []float64{5}
	if got := s.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	if s.Interval() != 1 {
		t.Fatalf("interval = %v, want 1", s.Interval())
	}
}
