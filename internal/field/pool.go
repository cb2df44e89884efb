package field

import (
	"fmt"
	"math/bits"
	"sync"

	"sunuintah/internal/grid"
)

// The package-level slice pool behind steady-state-allocation-free
// stepping: warehouse variables, halo-exchange payloads and kernel
// scratch all draw []float64 storage from here and return it when
// released, so after warm-up a timestep performs no heap allocation in the
// kernel or halo paths.
//
// Buffers are binned by power-of-two capacity: GetSlice(n) allocates with
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

// GetSlice returns a zeroed slice of length n from the pool (allocating
// one with power-of-two capacity on a miss). Safe for concurrent use.
func GetSlice(n int) []float64 {
	s := GetBuf(n)[:n]
	clear(s)
	return s
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

// NewCellPooled allocates a field over box like NewCell, drawing storage
// from the pool. Recycle the cell to return the storage.
func NewCellPooled(box grid.Box) *Cell {
	if box.Empty() {
		panic(fmt.Sprintf("field: empty allocation box %v", box))
	}
	s := box.Size()
	return &Cell{
		alloc:  box,
		stride: [2]int{s.X, s.X * s.Y},
		data:   GetSlice(int(box.NumCells())),
	}
}

// NewCellPooledWithGhost is NewCellPooled over interior grown by ghost.
func NewCellPooledWithGhost(interior grid.Box, ghost int) *Cell {
	return NewCellPooled(interior.Grow(ghost))
}

// Recycle returns the cell's storage to the pool and clears the cell.
// The cell (and any alias of its data) must not be used afterwards.
// Recycling a nil or already-recycled cell is a no-op, so it composes
// with timing-only paths where cells are absent. A window only detaches:
// its storage is its parent's and never enters the pool.
func (f *Cell) Recycle() {
	if f == nil || f.data == nil {
		return
	}
	if !f.window {
		PutSlice(f.data)
	}
	f.data = nil
}
