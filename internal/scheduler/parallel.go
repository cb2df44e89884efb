package scheduler

import (
	"sync"
	"sync/atomic"

	"sunuintah/internal/taskgraph"
)

// job runs the tile contexts a slot's launch recorded behind the simulated
// gang: start queues them and returns at once, and the rank waits only
// where the machine observes the kernel's end (the raised flag, an aborted
// launch) or before it writes a field the kernel reads. Every tile writes a
// disjoint output region and touches no shared scheduler or accounting
// state, so the results are byte-identical whoever runs which tile. The
// slot reuses the arrays, so an offload allocates nothing.
type job struct {
	tiles    []taskgraph.TileContext
	vars     []taskgraph.TileVar // the views tiles' In and Out slice
	compute  func(*taskgraph.TileContext)
	next     int                 // the first unclaimed tile; guarded by queue.mu
	left     atomic.Int64        // tiles not yet finished
	panicked atomic.Pointer[any] // the first kernel panic, re-raised by wait
}

// tileQueue is the process's one FIFO of launched jobs with unclaimed
// tiles, shared by every rank of every simulation. Workers start on demand,
// up to the launching rank's limit (GOMAXPROCS−1 when it was built), and
// exit when the queue is empty; a rank that waits for its own job runs
// queued tiles itself, oldest first, so it never blocks behind the workers
// and no CPU idles while tiles are queued.
type tileQueue struct {
	mu      sync.Mutex
	done    sync.Cond // broadcast when a job's last tile finishes
	ring    []*job    // jobs with unclaimed tiles, oldest at head
	head, n int
	workers int // running worker goroutines
	// work is worker, bound once: starting a worker allocates nothing.
	work func()
}

// queue is process-wide, not per simulation, so the runner pool's
// concurrent functional simulations share GOMAXPROCS−1 workers instead of
// each starting its own.
var queue = newTileQueue()

func newTileQueue() *tileQueue {
	q := &tileQueue{}
	q.done.L = &q.mu
	q.work = q.worker
	return q
}

// queueCounts tallies the queue's traffic when tests install one.
type queueCounts struct {
	locks, byWorker, byWaiter atomic.Int64
}

// counts is nil outside tests.
var counts atomic.Pointer[queueCounts]

func (q *tileQueue) lock() {
	if c := counts.Load(); c != nil {
		c.locks.Add(1)
	}
	q.mu.Lock()
}

// start queues compute over the recorded tiles and starts up to workers
// more goroutines to drain the queue. A launch with no tiles (timing-only
// mode) returns before it touches the queue.
func (j *job) start(workers int, compute func(*taskgraph.TileContext)) {
	if len(j.tiles) == 0 {
		return
	}
	j.compute = compute
	j.left.Store(int64(len(j.tiles)))
	q := queue
	q.lock()
	j.next = 0
	q.push(j)
	spawn := max(min(workers-q.workers, len(j.tiles)), 0)
	q.workers += spawn
	q.mu.Unlock()
	for range spawn {
		go q.work()
	}
}

// push appends j to the ring, growing it when full.
func (q *tileQueue) push(j *job) {
	if q.n == len(q.ring) {
		grown := make([]*job, max(2*len(q.ring), 8))
		for i := range q.n {
			grown[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = j
	q.n++
}

// claim hands out the oldest job's next tile. Called with mu held.
func (q *tileQueue) claim() (*job, int, bool) {
	if q.n == 0 {
		return nil, 0, false
	}
	j := q.ring[q.head]
	i := j.next
	j.next++
	if j.next == len(j.tiles) {
		q.ring[q.head] = nil
		q.head = (q.head + 1) % len(q.ring)
		q.n--
	}
	return j, i, true
}

// finish counts a run tile and wakes the waiters when it was its job's
// last. Called with mu held.
func (q *tileQueue) finish(j *job) {
	if j.left.Add(-1) == 0 {
		q.done.Broadcast()
	}
}

// worker runs queued tiles until the queue is empty, then exits.
func (q *tileQueue) worker() {
	q.lock()
	for {
		j, i, ok := q.claim()
		if !ok {
			q.workers--
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		j.run(i)
		if c := counts.Load(); c != nil {
			c.byWorker.Add(1)
		}
		q.lock()
		q.finish(j)
	}
}

// run computes tile i, keeping a kernel panic for the owning job's wait.
func (j *job) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			v := r // escapes only when a kernel panics
			j.panicked.CompareAndSwap(nil, &v)
		}
	}()
	j.compute(&j.tiles[i])
}

// help runs queued tiles, oldest first and of any job, until j's are all
// done, and sleeps only while every tile left is running elsewhere. A
// finished job returns without taking the lock.
func (j *job) help() {
	if j.left.Load() == 0 {
		return
	}
	q := queue
	q.lock()
	for j.left.Load() > 0 {
		k, i, ok := q.claim()
		if !ok {
			q.done.Wait()
			continue
		}
		q.mu.Unlock()
		k.run(i)
		if c := counts.Load(); c != nil {
			c.byWaiter.Add(1)
		}
		q.lock()
		q.finish(k)
	}
	q.mu.Unlock()
}

// wait helps until the job is done and re-raises a kernel's panic on the
// caller's goroutine.
func (j *job) wait() {
	j.help()
	if r := j.panicked.Swap(nil); r != nil {
		panic(*r)
	}
}
