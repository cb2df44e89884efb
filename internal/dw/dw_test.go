package dw

import (
	"errors"
	"testing"

	"sunuintah/internal/grid"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
)

func testCG() *sw26010.CoreGroup {
	return sw26010.NewMachine(sim.NewEngine(), perf.DefaultParams(), 1).CG(0)
}

func testPatch(t *testing.T) *grid.Patch {
	t.Helper()
	lv, err := grid.NewUnitCubeLevel(grid.IV(16, 16, 16), grid.IV(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return lv.Layout.Patch(0)
}

func TestAllocateGetFunctional(t *testing.T) {
	cg := testCG()
	w := NewWarehouse(Functional, cg)
	u := taskgraph.NewLabel("u", nil)
	p := testPatch(t)
	if err := w.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	f := w.Get(u, p)
	if f == nil {
		t.Fatal("functional warehouse returned nil field")
	}
	if f.Alloc() != p.Box.Grow(1) {
		t.Fatalf("field alloc = %v", f.Alloc())
	}
	wantBytes := p.Box.Grow(1).NumCells() * 8
	if w.Bytes(u, p) != wantBytes {
		t.Fatalf("bytes = %d, want %d", w.Bytes(u, p), wantBytes)
	}
	if inUse(t, cg) != wantBytes {
		t.Fatalf("cg accounting = %d", inUse(t, cg))
	}
}

func TestTimingOnlyTracksSizesWithoutData(t *testing.T) {
	cg := testCG()
	w := NewWarehouse(TimingOnly, cg)
	u := taskgraph.NewLabel("u", nil)
	p := testPatch(t)
	if err := w.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	if w.Get(u, p) != nil {
		t.Fatal("timing-only warehouse should have nil data")
	}
	if w.Bytes(u, p) == 0 || inUse(t, cg) == 0 {
		t.Fatal("timing-only warehouse must still account memory")
	}
}

func TestDoubleAllocateFails(t *testing.T) {
	w := NewWarehouse(TimingOnly, testCG())
	u := taskgraph.NewLabel("u", nil)
	p := testPatch(t)
	if err := w.Allocate(u, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Allocate(u, p, 0); err == nil {
		t.Fatal("double allocation should fail")
	}
}

func TestGetUnallocatedPanics(t *testing.T) {
	w := NewWarehouse(Functional, testCG())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Get(taskgraph.NewLabel("ghostvar", nil), testPatch(t))
}

func TestOutOfMemoryPropagates(t *testing.T) {
	cg := testCG()
	w := NewWarehouse(TimingOnly, cg)
	u := taskgraph.NewLabel("u", nil)
	lv, _ := grid.NewUnitCubeLevel(grid.IV(1024, 1024, 1024), grid.IV(1, 1, 1))
	p := lv.Layout.Patch(0) // 8 GB variable
	err := w.Allocate(u, p, 1)
	var oom *sw26010.ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("error = %v, want ErrOutOfMemory", err)
	}
}

func TestSwapLifecycle(t *testing.T) {
	cg := testCG()
	pair := NewPair(Functional, cg)
	u := taskgraph.NewLabel("u", nil)
	p := testPatch(t)

	// Step 0: initial condition in old, result in new.
	if err := pair.Old.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	pair.Old.Get(u, p).Set(grid.IV(3, 3, 3), 1.5)
	if err := pair.New.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	pair.New.Get(u, p).Set(grid.IV(3, 3, 3), 2.5)

	bytesOne := totalBytes(pair.Old)
	if inUse(t, cg) != 2*bytesOne {
		t.Fatalf("cg holds %d, want %d", inUse(t, cg), 2*bytesOne)
	}

	pair.Swap()
	// The new result became the old data; memory for the stale copy was
	// released.
	if got := pair.Old.Get(u, p).At(grid.IV(3, 3, 3)); got != 2.5 {
		t.Fatalf("after swap old value = %v, want 2.5", got)
	}
	if pair.New.Exists(u, p) {
		t.Fatal("fresh new warehouse should be empty")
	}
	if inUse(t, cg) != bytesOne {
		t.Fatalf("after swap cg holds %d, want %d", inUse(t, cg), bytesOne)
	}
}

// TestFreedVariableKeepsItsStorage follows one variable through two swaps:
// while freed it is gone to every reader and to the core group's
// accounting, and its next allocation hands back the same field with its
// contents untouched.
func TestFreedVariableKeepsItsStorage(t *testing.T) {
	cg := testCG()
	pair := NewPair(Functional, cg)
	u := taskgraph.NewLabel("u", nil)
	p := testPatch(t)
	w := pair.Old
	if err := w.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	f := w.Get(u, p)
	want := w.Bytes(u, p)
	for i := range f.Data() {
		f.Data()[i] = float64(i) + 0.5
	}
	before := append([]float64(nil), f.Data()...)

	freed := func(when string) {
		t.Helper()
		if w.Exists(u, p) || w.Bytes(u, p) != 0 {
			t.Fatalf("%s: freed variable exists (%d bytes)", when, w.Bytes(u, p))
		}
		if n := inUse(t, cg); n != 0 {
			t.Fatalf("%s: core group holds %d bytes, want 0", when, n)
		}
		mustPanic(t, when+": Get of a freed variable", func() { w.Get(u, p) })
	}
	pair.Swap()
	if pair.New != w {
		t.Fatal("the freed warehouse is not the new one")
	}
	freed("after one swap")
	pair.Swap()
	if pair.Old != w {
		t.Fatal("two swaps did not bring the warehouse back")
	}
	freed("after two swaps")

	// A refused allocation leaves the entry free and the accounting as
	// it was.
	filler := cg.Params.UsableFieldBytesPerCG - want + 1
	if err := cg.Allocate(filler); err != nil {
		t.Fatal(err)
	}
	var oom *sw26010.ErrOutOfMemory
	if err := w.Allocate(u, p, 1); !errors.As(err, &oom) {
		t.Fatalf("allocation over the limit: %v, want ErrOutOfMemory", err)
	}
	if w.Exists(u, p) || inUse(t, cg) != filler {
		t.Fatalf("a refused allocation changed the variable or the accounting (%d, want %d)", inUse(t, cg), filler)
	}
	cg.Free(filler)
	freed("after a refused allocation")

	if err := w.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	if w.Get(u, p) != f {
		t.Fatal("reallocation made a new field")
	}
	for i, v := range f.Data() {
		if v != before[i] {
			t.Fatalf("reallocation changed cell %d: %g -> %g", i, before[i], v)
		}
	}
	if w.Bytes(u, p) != want || inUse(t, cg) != want {
		t.Fatalf("bytes %d, core group %d, want %d", w.Bytes(u, p), inUse(t, cg), want)
	}
	if err := w.Allocate(u, p, 1); err == nil {
		t.Fatal("allocating a live variable again should fail")
	}
	// Another ghost width needs another field.
	pair.Swap()
	if err := w.Allocate(u, p, 2); err != nil {
		t.Fatal(err)
	}
	if g := w.Get(u, p); g == f || g.Alloc() != p.Box.Grow(2) {
		t.Fatalf("ghost width 2 got the width-1 field (allocation %v)", g.Alloc())
	}

	// Timing-only entries never get storage.
	tp := NewPair(TimingOnly, testCG())
	if err := tp.Old.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	tp.Swap()
	tp.Swap()
	if err := tp.Old.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	if tp.Old.Get(u, p) != nil {
		t.Fatal("timing-only variable has data after reallocation")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestSelect(t *testing.T) {
	pair := NewPair(TimingOnly, testCG())
	if pair.Select(taskgraph.OldDW) != pair.Old || pair.Select(taskgraph.NewDW) != pair.New {
		t.Fatal("Select mapping wrong")
	}
}

func TestRepeatedSwapsKeepAccountingBalanced(t *testing.T) {
	cg := testCG()
	pair := NewPair(TimingOnly, cg)
	u := taskgraph.NewLabel("u", nil)
	p := testPatch(t)
	if err := pair.Old.Allocate(u, p, 1); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		if err := pair.New.Allocate(u, p, 1); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		pair.Swap()
	}
	if inUse(t, cg) != totalBytes(pair.Old) {
		t.Fatalf("leak: cg %d vs warehouse %d", inUse(t, cg), totalBytes(pair.Old))
	}
}

// inUse reads the core group's field-memory footprint from the error of an
// allocation that cannot fit (a refused allocation changes nothing).
func inUse(t *testing.T, cg *sw26010.CoreGroup) int64 {
	t.Helper()
	var oom *sw26010.ErrOutOfMemory
	if !errors.As(cg.Allocate(cg.Params.UsableFieldBytesPerCG+1), &oom) {
		t.Fatal("an allocation over the usable memory succeeded")
	}
	return oom.InUse
}

// totalBytes is the warehouse's accounted footprint.
func totalBytes(w *Warehouse) int64 {
	var n int64
	for _, e := range w.vars {
		if e.live {
			n += e.bytes
		}
	}
	return n
}
