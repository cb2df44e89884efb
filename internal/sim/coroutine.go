//go:build go1.23

package sim

import "iter"

// This file needs iter.Pull (go1.23). The module's go.mod stays at 1.22 —
// bench/go.mod is frozen there and replaces this module — so the build tag
// is what raises the language version for this one file (and keeps go
// vet's stdversion check quiet).

// processReleased is the private panic value that unwinds a parked
// process's body when its engine can never resume it.
type processReleased struct{}

// start makes body a coroutine of the engine: run's next() switches to it,
// yield's park() switches back. Nothing runs until the first next().
func (p *Process) start(body func(p *Process)) {
	p.next, p.stop = iter.Pull(func(park func(struct{}) bool) {
		p.park = park
		defer func() {
			if r := recover(); r != nil {
				if _, released := r.(processReleased); !released {
					panic(r) // iter.Pull re-raises it in run's caller
				}
			}
		}()
		body(p)
		p.Sync() // finish at the process's clock, as a sleeper would
		p.finished = true
		p.eng.active--
		p.doneSig.Fire()
		// The engine keeps finished processes on its roster; do not let
		// them pin the coroutine and everything body captured.
		p.next, p.park, p.stop = nil, nil, nil
	})
}

// releaseProcesses unwinds every process still parked on a dead engine so
// none outlives the run: stop() makes the pending park() return false and
// yield panics processReleased up the body's stack, running its deferred
// calls, into start's recover. (Not runtime.Goexit, which iter.Pull would
// forward to this goroutine.) Never-started and finished processes cost a
// no-op.
func (e *Engine) releaseProcesses() {
	for _, p := range e.procs {
		if !p.finished {
			p.stop()
		}
	}
}
