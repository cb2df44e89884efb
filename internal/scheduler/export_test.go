package scheduler

import (
	"runtime"

	"sunuintah/internal/taskgraph"
)

// QueueCounts is the tile queue's traffic while a count runs: its lock
// acquisitions and the tiles run by queue workers and by waiting ranks.
type QueueCounts struct{ Locks, ByWorker, ByWaiter int64 }

// CountQueue waits for the workers an earlier run left exiting, then
// starts counting the tile queue's traffic; the returned func stops the
// count and reports it.
func CountQueue() func() QueueCounts {
	for {
		queue.mu.Lock()
		idle := queue.workers == 0
		queue.mu.Unlock()
		if idle {
			break
		}
		runtime.Gosched()
	}
	c := &queueCounts{}
	counts.Store(c)
	return func() QueueCounts {
		counts.Store(nil)
		return QueueCounts{c.locks.Load(), c.byWorker.Load(), c.byWaiter.Load()}
	}
}

// PanicJobs queues two jobs of two tiles each, starting no worker: the
// owner's, whose tile 0 panics with "tile 0", then the helper's behind it.
// The funcs wait for each job; ran counts the kernels that ran.
func PanicJobs() (owner, helper func(), ran *int) {
	ran = new(int)
	queued := func(panics bool) *job {
		j := &job{tiles: make([]taskgraph.TileContext, 2)}
		j.start(0, func(tc *taskgraph.TileContext) {
			*ran++
			if panics && tc == &j.tiles[0] {
				panic("tile 0")
			}
		})
		return j
	}
	o, h := queued(true), queued(false)
	return o.wait, h.wait, ran
}
