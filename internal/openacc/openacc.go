// Package openacc emulates the Sunway OpenACC compiler interface over the
// athread layer, as a documented contrast to the low-level path the paper
// takes. Section IV-B: "the Sunway OpenACC interface does not expose all
// the features of SW26010 and the current implementation does not support
// OpenACC runtime functions such as acc_async_test. For this reason a more
// low-level athreads interface is used here."
//
// Concretely: this facade can offload a parallel loop across the CPE
// cluster, but completion can only be awaited synchronously — there is no
// way to test an offload for completion and do other work meanwhile, which
// is exactly the capability the asynchronous scheduler requires. The
// package exists so the trade-off is executable, not just prose: a
// scheduler built on it can only ever be the paper's "acc.sync" variant.
package openacc

import (
	"errors"

	"sunuintah/internal/athread"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
)

// ErrUnsupported is returned by the async-query entry points the Sunway
// OpenACC runtime does not implement.
var ErrUnsupported = errors.New("openacc: acc_async_test is not supported by the Sunway OpenACC runtime")

// Accel is an OpenACC-style accelerator view of one core group's CPE
// cluster.
type Accel struct {
	group *athread.Group
	flag  *sim.Counter
	seq   int
}

// New initialises the accelerator on a core group.
func New(cg *sw26010.CoreGroup) *Accel {
	return &Accel{group: athread.NewGroup(cg)}
}

// LoopSpec describes an offloaded parallel loop's cost, mirroring
// athread.KernelSpec (the OpenACC compiler generates the same CPE code).
type LoopSpec = athread.KernelSpec

// ParallelLoop offloads body across the CPE cluster and blocks the calling
// process until every CPE finishes — OpenACC's synchronous kernels
// construct. activeCPEs has athread.Group.Spawn semantics. It returns the
// offload's duration.
func (a *Accel) ParallelLoop(p *sim.Process, spec LoopSpec, activeCPEs int, body func(c *athread.CPE)) sim.Time {
	a.seq++
	flag := sim.NewCounter(a.group.CoreGroup().Engine(), "openacc.flag")
	dur := a.group.Spawn(spec, activeCPEs, flag, body)
	flag.WaitFor(p, int64(a.group.NumCPEs()))
	return dur
}

// AsyncTest would poll an asynchronous offload for completion; the Sunway
// implementation does not provide it. It always returns ErrUnsupported,
// making the limitation explicit at the call site.
func (a *Accel) AsyncTest() (bool, error) {
	return false, ErrUnsupported
}

// AsyncWait would block on a previously launched asynchronous region;
// without async launches it has nothing to wait for.
func (a *Accel) AsyncWait() error { return ErrUnsupported }
