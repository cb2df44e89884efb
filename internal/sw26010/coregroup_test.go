package sw26010

import (
	"errors"
	"testing"

	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
)

func TestMachineConstruction(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, perf.DefaultParams(), 4)
	if len(m.cgs) != 4 {
		t.Fatalf("core groups = %d", len(m.cgs))
	}
	for i := 0; i < 4; i++ {
		if m.CG(i).ID != i {
			t.Errorf("CG %d has ID %d", i, m.CG(i).ID)
		}
		if m.CG(i).Engine() != eng {
			t.Errorf("CG %d does not share the engine", i)
		}
	}
}

func TestPeakFlopsScalesWithCGs(t *testing.T) {
	eng := sim.NewEngine()
	p := perf.DefaultParams()
	m := NewMachine(eng, p, 128)
	want := 128 * p.CGPeakFlops()
	if m.PeakFlops() != want {
		t.Fatalf("PeakFlops = %v, want %v", m.PeakFlops(), want)
	}
}

func TestMemoryAccountingReproducesTableIII(t *testing.T) {
	// Table III: a 4 GB problem (64x64x512 patches on 1 CG holding the
	// whole 512x512x1024 grid) crashes with memory allocation errors,
	// while the 2 GB problem fits.
	eng := sim.NewEngine()
	cg := NewMachine(eng, perf.DefaultParams(), 1).CG(0)
	if err := cg.Allocate(2 << 30); err != nil {
		t.Fatalf("2 GB allocation should succeed: %v", err)
	}
	cg.Free(2 << 30)
	err := cg.Allocate(4 << 30)
	if err == nil {
		t.Fatal("4 GB allocation should fail (Table III starred rows)")
	}
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("error type = %T", err)
	}
	if oom.CG != 0 || oom.Requested != 4<<30 {
		t.Errorf("oom detail = %+v", oom)
	}
}

func TestAllocateFreeBalance(t *testing.T) {
	eng := sim.NewEngine()
	cg := NewMachine(eng, perf.DefaultParams(), 1).CG(0)
	if err := cg.Allocate(100); err != nil {
		t.Fatal(err)
	}
	if err := cg.Allocate(200); err != nil {
		t.Fatal(err)
	}
	if cg.allocBytes != 300 {
		t.Fatalf("allocated = %d", cg.allocBytes)
	}
	cg.Free(300)
	if cg.allocBytes != 0 {
		t.Fatalf("allocated after free = %d", cg.allocBytes)
	}
}

func TestFreeUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := sim.NewEngine()
	NewMachine(eng, perf.DefaultParams(), 1).CG(0).Free(1)
}

func TestCountersAggregate(t *testing.T) {
	a := Counters{Flops: 100, ExpFlops: 70, CellsComputed: 10, DMABytes: 5, DMAOps: 1, Offloads: 1, FaawOps: 64, MPEFlops: 3}
	b := Counters{Flops: 50, ExpFlops: 30, CellsComputed: 5, DMABytes: 2, DMAOps: 1, Offloads: 1, FaawOps: 64}
	a.Add(b)
	if a.Flops != 150 || a.ExpFlops != 100 || a.CellsComputed != 15 ||
		a.DMABytes != 7 || a.DMAOps != 2 || a.Offloads != 2 || a.FaawOps != 128 || a.MPEFlops != 3 {
		t.Fatalf("aggregate = %+v", a)
	}
}
