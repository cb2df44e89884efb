package scheduler

import (
	"sync"
	"sync/atomic"

	"sunuintah/internal/taskgraph"
)

// job runs the tile contexts a slot's launch recorded on a host worker pool
// behind the simulated gang: start returns at once, and the rank waits only
// where the machine observes the kernel's end (the raised flag, an aborted
// launch) or before it writes a field the kernel reads. Every tile writes a
// disjoint output region and touches no shared scheduler or accounting
// state, so the results are byte-identical for any worker count. The slot
// reuses the arrays and the wait handle, so an offload allocates nothing.
type job struct {
	tiles    []taskgraph.TileContext
	vars     []taskgraph.TileVar // the views tiles' In and Out slice
	compute  func(*taskgraph.TileContext)
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Pointer[any] // the first kernel panic, re-raised by wait
	work     func()              // run, bound once: starting a worker allocates nothing
	spawned  int64               // workers started over the slot's life
}

// start runs compute over the tiles on up to workers goroutines.
func (j *job) start(workers int, compute func(*taskgraph.TileContext)) {
	n := min(workers, len(j.tiles))
	j.compute = compute
	j.next.Store(0)
	j.wg.Add(n)
	j.spawned += int64(n)
	if j.work == nil {
		j.work = j.run
	}
	for range n {
		go j.work()
	}
}

func (j *job) run() {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			v := r // escapes only when a kernel panics
			j.panicked.CompareAndSwap(nil, &v)
		}
	}()
	for i := int(j.next.Add(1)) - 1; i < len(j.tiles); i = int(j.next.Add(1)) - 1 {
		j.compute(&j.tiles[i])
	}
}

// wait blocks until the started tiles are done and re-raises a kernel's
// panic on the caller's goroutine. Waiting on a finished job is free.
func (j *job) wait() {
	j.wg.Wait()
	if r := j.panicked.Swap(nil); r != nil {
		panic(*r)
	}
}
