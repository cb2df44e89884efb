package scheduler

import (
	"sync"
	"sync/atomic"

	"sunuintah/internal/taskgraph"
)

// runTiles runs compute over the tile contexts an offload recorded, on a
// bounded worker pool, and waits for all of them. Every tile writes a
// disjoint output region and touches no shared scheduler or accounting
// state, so execution order does not matter and the results are
// byte-identical for any worker count. Panics inside compute (kernel
// bugs) are re-raised on the caller's goroutine.
func runTiles(workers int, ops []taskgraph.TileContext, compute func(*taskgraph.TileContext)) {
	if workers <= 1 || len(ops) <= 1 {
		for i := range ops {
			compute(&ops[i])
		}
		return
	}
	if workers > len(ops) {
		workers = len(ops)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicVal any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				compute(&ops[i])
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
