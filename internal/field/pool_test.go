package field

import (
	"sync"
	"testing"
)

func TestGetBufReuse(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("GetBuf(100): len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	PutSlice(b)
	if n := testing.AllocsPerRun(20, func() {
		s := GetBuf(100)
		s = append(s, 4, 5, 6)
		PutSlice(s)
	}); n != 0 {
		t.Errorf("GetBuf/PutSlice cycle allocates %v per run, want 0", n)
	}
}

func TestPutSliceOddCapacityStillServes(t *testing.T) {
	// A buffer grown by append may have a non-power-of-two capacity; it is
	// binned by the largest class it can fully serve.
	odd := make([]float64, 0, 100) // bins into class 64
	PutSlice(odd)
	s := GetBuf(60)
	if cap(s) < 60 {
		t.Fatalf("GetBuf(60) after odd put: cap=%d", cap(s))
	}
	PutSlice(s)
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPoolConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := append(GetBuf(1+i%512), 1)
				PutSlice(s)
			}
		}()
	}
	wg.Wait()
}
