package field

import (
	"math/bits"
	"sync"
)

// The package-level slice pool serves transient buffers only: halo-exchange
// payloads and kernel scratch draw []float64 storage from here and return
// it when released, so after warm-up a timestep performs no heap
// allocation in the kernel or halo paths. Warehouse variables do not come
// from here: each owns its field for the warehouse's life (package dw).
//
// Buffers are binned by power-of-two capacity: GetBuf(n) allocates with
// capacity rounded up to a power of two, so a recycled buffer lands back
// in the class it was taken from and serves any later request of similar
// size. The free lists are mutex-protected (not a sync.Pool): put/get of
// a []float64 through an interface would itself allocate the slice
// header, and the mutex keeps buffers alive across GCs, which matters for
// AllocsPerRun-style steady-state checks.

// maxPerClass bounds each size class so a transient burst (e.g. a large
// sweep) cannot pin memory forever; excess buffers fall to the GC.
const maxPerClass = 256

var slicePool struct {
	mu      sync.Mutex
	classes map[int][][]float64
}

// classFor returns the power-of-two capacity class serving requests of n
// values (the smallest power of two >= n, minimum 1).
func classFor(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// GetBuf returns a zero-length slice with capacity >= n from the pool,
// for append-style fills (Pack payloads). Safe for concurrent use.
func GetBuf(n int) []float64 {
	c := classFor(n)
	slicePool.mu.Lock()
	if slicePool.classes != nil {
		if list := slicePool.classes[c]; len(list) > 0 {
			s := list[len(list)-1]
			list[len(list)-1] = nil
			slicePool.classes[c] = list[:len(list)-1]
			slicePool.mu.Unlock()
			return s[:0]
		}
	}
	slicePool.mu.Unlock()
	return make([]float64, 0, c)
}

// PutSlice returns a buffer to the pool. The caller must not use s (or
// any alias of its backing array) afterwards. Buffers whose capacity is
// not a power of two are binned by the largest power of two they can
// fully serve. nil and zero-capacity slices are ignored.
func PutSlice(s []float64) {
	c := cap(s)
	if c == 0 {
		return
	}
	// Bin by the largest power of two <= cap: every request routed to
	// that class fits.
	c = 1 << (bits.Len(uint(c)) - 1)
	slicePool.mu.Lock()
	if slicePool.classes == nil {
		slicePool.classes = map[int][][]float64{}
	}
	if list := slicePool.classes[c]; len(list) < maxPerClass {
		slicePool.classes[c] = append(list, s[:0])
	}
	slicePool.mu.Unlock()
}
