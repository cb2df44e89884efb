package sw26010

import (
	"fmt"

	"sunuintah/internal/faults"
	"sunuintah/internal/obs"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
)

// CoreGroup is one CG of a SW26010 processor used as an independent
// computing node (the paper's usual practice). It owns the memory
// accounting, the hardware counters, and the CPE cluster used for offloads.
type CoreGroup struct {
	ID       int
	Params   perf.Params
	Counters Counters

	// Faults, when non-nil, injects CPE-side failures (stalled gangs and
	// stragglers) into offloads launched on this core group. All core
	// groups of a simulation share one injector.
	Faults *faults.Injector

	// Probes, when non-nil, is this rank's flight-recorder hook set:
	// Allocate/Free feed the memory-footprint series and offload launches
	// feed the DMA-traffic series. Only this CG's engine events touch it.
	Probes *obs.RankProbes

	eng        *sim.Engine
	allocBytes int64
	peakBytes  int64
	noiseState uint64
}

// Machine is the collection of core groups participating in a run, sharing
// one simulation engine and one parameter set.
type Machine struct {
	Params perf.Params
	cgs    []*CoreGroup
}

// NewMachine creates nCGs core groups on the given engine.
func NewMachine(eng *sim.Engine, params perf.Params, nCGs int) *Machine {
	engs := make([]*sim.Engine, nCGs)
	for i := range engs {
		engs[i] = eng
	}
	return NewMachineWithEngines(engs, params)
}

// NewMachineWithEngines creates one core group per engine — the sharded
// construction, where engs[i] is the shard engine owning core group i.
// Every per-CG state (counters, memory accounting, noise stream) is
// already CG-local, so the only sharding concern is that each CG's
// offloads and timers land on its own engine.
func NewMachineWithEngines(engs []*sim.Engine, params perf.Params) *Machine {
	if len(engs) == 0 {
		panic("sw26010: need at least one core group")
	}
	m := &Machine{Params: params}
	for i, eng := range engs {
		m.cgs = append(m.cgs, &CoreGroup{
			ID:         i,
			Params:     params,
			eng:        eng,
			noiseState: params.NoiseSeed*0x9e3779b97f4a7c15 + uint64(i+1),
		})
	}
	return m
}

// Jitter returns a deterministic pseudo-random slowdown factor in
// [1, 1+NoiseFraction), advancing the core group's noise stream
// (splitmix64). With NoiseFraction zero it always returns exactly 1, and
// runs are bit-reproducible. This models the machine instability that
// made the paper measure each case several times and keep the best.
func (cg *CoreGroup) Jitter() float64 {
	if cg.Params.NoiseFraction == 0 {
		return 1
	}
	cg.noiseState += 0x9e3779b97f4a7c15
	z := cg.noiseState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53)
	return 1 + cg.Params.NoiseFraction*u
}

// CG returns core group i.
func (m *Machine) CG(i int) *CoreGroup { return m.cgs[i] }

// TotalCounters aggregates the counters of every core group.
func (m *Machine) TotalCounters() Counters {
	var t Counters
	for _, cg := range m.cgs {
		t.Add(cg.Counters)
	}
	return t
}

// PeakFlops returns the aggregate theoretical peak of the running CGs, the
// denominator of the paper's floating-point efficiency (Figure 10).
func (m *Machine) PeakFlops() float64 {
	return float64(len(m.cgs)) * m.Params.CGPeakFlops()
}

// ErrOutOfMemory is returned when a core group's usable field memory is
// exhausted, reproducing the paper's "crashes with memory allocation
// errors" cases in Table III.
type ErrOutOfMemory struct {
	CG        int
	Requested int64
	InUse     int64
	Limit     int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("sw26010: CG %d memory allocation error: request %d B with %d B in use exceeds usable %d B",
		e.CG, e.Requested, e.InUse, e.Limit)
}

// Allocate reserves bytes of field memory on the core group.
func (cg *CoreGroup) Allocate(bytes int64) error {
	if bytes < 0 {
		panic("sw26010: negative allocation")
	}
	if cg.allocBytes+bytes > cg.Params.UsableFieldBytesPerCG {
		return &ErrOutOfMemory{CG: cg.ID, Requested: bytes, InUse: cg.allocBytes,
			Limit: cg.Params.UsableFieldBytesPerCG}
	}
	cg.allocBytes += bytes
	if cg.allocBytes > cg.peakBytes {
		cg.peakBytes = cg.allocBytes
	}
	cg.Probes.Mem(cg.eng.Now(), cg.allocBytes)
	return nil
}

// Free releases bytes previously allocated.
func (cg *CoreGroup) Free(bytes int64) {
	cg.allocBytes -= bytes
	if cg.allocBytes < 0 {
		panic("sw26010: allocation accounting underflow")
	}
	cg.Probes.Mem(cg.eng.Now(), cg.allocBytes)
}

// PeakBytes returns the high-water field-memory footprint (a run's
// PeakMemoryBytes).
func (cg *CoreGroup) PeakBytes() int64 { return cg.peakBytes }

// Engine returns the simulation engine the core group runs on.
func (cg *CoreGroup) Engine() *sim.Engine { return cg.eng }
