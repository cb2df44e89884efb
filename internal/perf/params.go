// Package perf holds the performance model of the simulated Sunway
// TaihuLight: the physical machine parameters from Table II of the paper,
// plus calibrated software-cost constants that turn work descriptors (cells
// computed, bytes moved, messages sent) into virtual time.
//
// The physical anchors are taken verbatim from the paper and Dongarra's
// TaihuLight report; the calibrated constants are tuned so the simulated
// runs reproduce the paper's measured throughput (~7.6 Gflop/s sustained
// per core group, 1.0–1.17% of peak) and the relative behaviour of the five
// experimental variants. They model a machine *like* the SW26010 running a
// preliminary port, not a cycle-accurate twin; see DESIGN.md §5.
package perf

// Params collects every tunable of the machine and software cost model.
// Use DefaultParams for the calibrated configuration.
type Params struct {
	// ---- Physical machine (Table II and Section IV) ----

	// MPEClockHz is the MPE core clock (1.45 GHz).
	MPEClockHz float64
	// CPEClockHz is the CPE core clock (1.45 GHz).
	CPEClockHz float64
	// MPEPeakFlops is the MPE peak (23.2 Gflop/s).
	MPEPeakFlops float64
	// CPEClusterPeakFlops is the 64-CPE cluster peak (742.4 Gflop/s).
	CPEClusterPeakFlops float64
	// NumCPEs is the number of CPEs per core group (64).
	NumCPEs int
	// LDMBytes is the per-CPE scratch-pad capacity (64 KiB).
	LDMBytes int64
	// MemBytesPerCG is main memory per core group (8 GiB).
	MemBytesPerCG int64
	// UsableFieldBytesPerCG is the effective memory available to field data
	// before the runtime fails with an allocation error. The paper's Table
	// III shows a 4 GB problem crashing on one CG (8 GB): the double
	// warehouses' ghost copies, foreign variables, MPI buffers and the
	// hybrid toolchain claim the rest. Any threshold in (2 GB, 4 GB)
	// reproduces the starred rows; 3.5 GiB is used.
	UsableFieldBytesPerCG int64
	// MemBandwidth is the per-CG DDR3-2133 128-bit memory-controller
	// bandwidth (~34 GB/s).
	MemBandwidth float64
	// LinkBandwidth is the bidirectional point-to-point interconnect
	// bandwidth (16 GB/s).
	LinkBandwidth float64
	// LinkLatency is the interconnect latency (~1 us).
	LinkLatency float64
	// CGsPerNode is the number of core groups sharing one SW26010
	// processor (4). Messages between CGs of the same processor cross the
	// on-chip network and main memory instead of the interconnect.
	CGsPerNode int
	// IntraNodeBandwidth and IntraNodeLatency describe same-processor
	// transfers.
	IntraNodeBandwidth float64
	IntraNodeLatency   float64

	// ---- CPE kernel costs (calibrated; Section VI) ----

	// CPECyclesPerCellScalar is the effective per-cell cost of the scalar
	// Burgers kernel on one CPE, dominated by six software exponentials and
	// the divides in phi (no hardware exp on SW26010). Calibrated to the
	// paper's sustained ~7.6 Gflop/s per CG.
	CPECyclesPerCellScalar float64
	// SIMDSpeedup divides the compute portion when the kernel is
	// vectorised with 4-wide intrinsics ("computing time is reduced by
	// half" — Section VII-B).
	SIMDSpeedup float64
	// DMALatency is the per-operation cost of a synchronous athread_get or
	// athread_put, including setup and the reply wait.
	DMALatency float64
	// DMAEfficiency derates MemBandwidth for strided tile DMA (gather of
	// rows with ghost margins rather than one contiguous block).
	DMAEfficiency float64
	// PackedDMAEfficiency is the improved efficiency when tiles are packed
	// into contiguous transfer buffers (Section IX future work: "it is
	// also possible to pack the tiles to improve data transfer
	// performance"); packing also amortises part of the per-operation
	// latency, modelled as PackedDMALatencyScale x DMALatency.
	PackedDMAEfficiency   float64
	PackedDMALatencyScale float64
	// FaawCost is the cost of the atomic fetch-and-add updating the
	// completion flag in main memory.
	FaawCost float64

	// ---- MPE software costs (calibrated; Section V-C) ----

	// MPECyclesPerCellScalar is the per-cell cost of running the kernel on
	// the MPE itself (host.sync mode). The MPE has caches and runs the
	// math-library exp; it is far faster per core than a CPE on this
	// kernel.
	MPECyclesPerCellScalar float64
	// MPEBCCyclesPerCell is the per-ghost-cell cost of evaluating the
	// boundary condition (a product of three phi evaluations, six
	// exponentials) on the MPE.
	MPEBCCyclesPerCell float64
	// MPECopyBandwidth is the MPE's effective memcpy rate for packing and
	// unpacking ghost regions through its cache hierarchy.
	MPECopyBandwidth float64
	// MPETouchBandwidth is the rate at which the MPE allocates and
	// first-touches a new data-warehouse variable (the "process the MPE
	// part of the selected task" step).
	MPETouchBandwidth float64
	// TaskFixedCost is the per-task-object scheduling overhead: selecting
	// a ready task, data-warehouse handle lookups, task-graph updates.
	TaskFixedCost float64
	// StepFixedCost is the per-timestep infrastructure overhead of the
	// runtime on each rank: preparing the scheduler, clearing completion
	// flags, and the end-of-step checks for task-graph recompilation, load
	// balancing and regridding (steps 1 and 4 of Section V-C). It is what
	// caps strong scaling for small problems at high CG counts.
	StepFixedCost float64
	// OffloadCost is the cost of launching an athread kernel on the CPE
	// cluster (lightweight, per Section IV-A).
	OffloadCost float64
	// PollCost is one check of the completion flag plus one trip around
	// the scheduler's progress loop.
	PollCost float64

	// ---- MPI costs (calibrated; Sections V-C and related work [18]) ----

	// MPIPostCost is the software cost of posting one non-blocking send or
	// receive.
	MPIPostCost float64
	// MPITestCost is the software cost of testing one outstanding request.
	// Progress happens only under Test/Wait, as on most MPI
	// implementations (the paper cites Denis & Trahay for this).
	MPITestCost float64
	// ReduceBaseCost is the per-step software cost of a reduction on each
	// rank, in addition to the log2(P) latency terms.
	ReduceBaseCost float64

	// ---- Machine instability (Section VII-A) ----

	// NoiseFraction adds deterministic pseudo-random jitter of up to this
	// fraction to every kernel-compute charge, modelling the
	// "instabilities in the machine" that made the paper repeat each case
	// multiple times and select the best result. Zero (the default)
	// disables noise.
	NoiseFraction float64
	// NoiseSeed selects the jitter stream; repeating a case with
	// different seeds and keeping the minimum reproduces the paper's
	// measurement protocol.
	NoiseSeed uint64
}

// DefaultParams returns the calibrated model. The calibration tests in this
// package lock in the resulting behaviour.
func DefaultParams() Params {
	return Params{
		MPEClockHz:            1.45e9,
		CPEClockHz:            1.45e9,
		MPEPeakFlops:          23.2e9,
		CPEClusterPeakFlops:   742.4e9,
		NumCPEs:               64,
		LDMBytes:              64 * 1024,
		MemBytesPerCG:         8 << 30,
		UsableFieldBytesPerCG: 3584 << 20, // 3.5 GiB
		MemBandwidth:          34.1e9,
		LinkBandwidth:         16e9,
		LinkLatency:           1e-6,
		CGsPerNode:            4,
		IntraNodeBandwidth:    28e9,
		IntraNodeLatency:      0.4e-6,

		CPECyclesPerCellScalar: 5600,
		SIMDSpeedup:            2.0,
		DMALatency:             1.8e-6,
		DMAEfficiency:          0.80,
		PackedDMAEfficiency:    0.95,
		PackedDMALatencyScale:  0.5,
		FaawCost:               2e-7,

		MPECyclesPerCellScalar: 520,
		MPEBCCyclesPerCell:     120,
		MPECopyBandwidth:       3.0e9,
		MPETouchBandwidth:      1.4e9,
		TaskFixedCost:          40e-6,
		StepFixedCost:          9e-3,
		OffloadCost:            15e-6,
		PollCost:               1.2e-6,

		MPIPostCost:    2.0e-6,
		MPITestCost:    0.8e-6,
		ReduceBaseCost: 5e-6,
	}
}

// CGPeakFlops returns the combined MPE+CPE peak of one core group
// (765.6 Gflop/s), the denominator of the paper's Figure 10 efficiency.
func (p Params) CGPeakFlops() float64 { return p.MPEPeakFlops + p.CPEClusterPeakFlops }

// The cost methods below have pointer receivers: they run per message,
// per tile and per MPE part, and Params is large enough that a by-value
// call copies a block even when it is inlined.

// MessageTime returns the wire time for a point-to-point message of the
// given size over the interconnect: latency plus serialisation at link
// bandwidth.
func (p *Params) MessageTime(bytes int64) float64 {
	return p.LinkLatency + float64(bytes)/p.LinkBandwidth
}

// MessageTimeBetween returns the wire time between two ranks, using the
// on-chip path when both core groups live on the same SW26010 processor.
func (p *Params) MessageTimeBetween(src, dst int, bytes int64) float64 {
	if p.CGsPerNode > 1 && src/p.CGsPerNode == dst/p.CGsPerNode {
		return p.IntraNodeLatency + float64(bytes)/p.IntraNodeBandwidth
	}
	return p.MessageTime(bytes)
}

// LocalCopyTime returns the MPE time to copy the given bytes within one
// core group's memory (same-rank "message" or ghost pack/unpack).
func (p *Params) LocalCopyTime(bytes int64) float64 {
	return float64(bytes) / p.MPECopyBandwidth
}

// TouchTime returns the MPE time to allocate and first-touch bytes of a
// new data-warehouse variable.
func (p *Params) TouchTime(bytes int64) float64 {
	return float64(bytes) / p.MPETouchBandwidth
}

// MPEKernelTime returns the MPE-only execution time of a kernel over cells
// cells with the given relative cost weight (1.0 = the Burgers kernel).
func (p *Params) MPEKernelTime(cells int64, weight float64) float64 {
	return float64(cells) * p.MPECyclesPerCellScalar * weight / p.MPEClockHz
}

// BCFillTime returns the MPE time to evaluate boundary conditions on the
// given number of ghost cells.
func (p *Params) BCFillTime(cells int64) float64 {
	return float64(cells) * p.MPEBCCyclesPerCell / p.MPEClockHz
}

// CPEComputeTime returns the pure compute time for one CPE processing the
// given cells with the scalar or vectorised kernel, at relative weight.
func (p *Params) CPEComputeTime(cells int64, simd bool, weight float64) float64 {
	cyc := p.CPECyclesPerCellScalar * weight
	if simd {
		cyc /= p.SIMDSpeedup
	}
	return float64(cells) * cyc / p.CPEClockHz
}

// DMATime returns the time for one synchronous DMA transfer of the given
// bytes when active CPEs share the memory controller.
func (p *Params) DMATime(bytes int64, activeCPEs int) float64 {
	if activeCPEs < 1 {
		activeCPEs = 1
	}
	perCPE := p.MemBandwidth * p.DMAEfficiency / float64(activeCPEs)
	return p.DMALatency + float64(bytes)/perCPE
}

// PackedDMATime is DMATime for transfers whose tiles were packed into
// contiguous buffers (Section IX).
func (p *Params) PackedDMATime(bytes int64, activeCPEs int) float64 {
	if activeCPEs < 1 {
		activeCPEs = 1
	}
	perCPE := p.MemBandwidth * p.PackedDMAEfficiency / float64(activeCPEs)
	return p.DMALatency*p.PackedDMALatencyScale + float64(bytes)/perCPE
}
