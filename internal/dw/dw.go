// Package dw implements Uintah's data-warehouse abstraction: the old
// warehouse holds the previous timestep's variables, tasks read from it and
// populate the new warehouse, and at the end of the timestep the warehouses
// swap. Variable storage is accounted against the owning core group's
// memory, reproducing the paper's Table III out-of-memory cases.
//
// A warehouse operates in one of two modes: functional (variables carry
// real field data) or timing-only (only sizes are tracked, so billion-cell
// problems can be scheduled without allocating their storage).
//
// A warehouse holds the same (label, patch) variables every step, so a
// variable owns its storage for the warehouse's life: freeing it returns
// its bytes to the core group and marks it free, and the next allocation
// of the same variable hands back the same field, not zeroed. That is
// safe because no cell is read before the step writes it: a task computes
// every interior cell of its output, and every ghost cell an old-warehouse
// reader needs is written once a step by a copy, a receive or a boundary
// fill (taskgraph's TestGhostCellsWrittenOncePerStep proves the ghost half
// on the compiled graph; core's TestStaleStorageNeverReachesOutput NaN-fills
// reused storage and ghost margins and holds every output to the bit).
package dw

import (
	"fmt"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/sw26010"
	"sunuintah/internal/taskgraph"
)

// Mode selects functional or timing-only storage.
type Mode int

// Warehouse modes.
const (
	Functional Mode = iota
	TimingOnly
)

type varKey struct {
	label   *taskgraph.Label
	patchID int
}

type varEntry struct {
	data  *field.Cell // nil in timing-only mode
	bytes int64
	live  bool // allocated this step; a freed entry keeps its data
}

// Warehouse stores one timestep's variables for one rank.
type Warehouse struct {
	mode Mode
	cg   *sw26010.CoreGroup
	vars map[varKey]varEntry
}

// NewWarehouse creates an empty warehouse accounted against cg.
func NewWarehouse(mode Mode, cg *sw26010.CoreGroup) *Warehouse {
	return &Warehouse{mode: mode, cg: cg, vars: map[varKey]varEntry{}}
}

// Allocate creates the variable (label, patch) with the given ghost margin.
// It returns sw26010.ErrOutOfMemory when the core group's usable memory is
// exhausted, leaving the variable as it was. Allocating a live variable is
// an error. Only the first allocation of a variable makes a field; a later
// one, after FreeAll, hands back the same storage with its old contents
// (see the package comment for why no cell is read before it is written).
func (w *Warehouse) Allocate(label *taskgraph.Label, patch *grid.Patch, ghost int) error {
	k := varKey{label, patch.ID}
	e := w.vars[k]
	if e.live {
		return fmt.Errorf("dw: variable %q already allocated on %v", label.Name(), patch)
	}
	box := patch.Box.Grow(ghost)
	bytes := box.NumCells() * 8
	if err := w.cg.Allocate(bytes); err != nil {
		return err
	}
	if w.mode == Functional && (e.data == nil || e.data.Alloc() != box) {
		e.data = field.NewCell(box)
	}
	e.bytes, e.live = bytes, true
	w.vars[k] = e
	return nil
}

// Get returns the variable's field data, or nil in timing-only mode. It
// panics if the variable is not allocated — a scheduling bug.
func (w *Warehouse) Get(label *taskgraph.Label, patch *grid.Patch) *field.Cell {
	e := w.vars[varKey{label, patch.ID}]
	if !e.live {
		panic(fmt.Sprintf("dw: variable %q not allocated on %v", label.Name(), patch))
	}
	return e.data
}

// Exists reports whether the variable is allocated.
func (w *Warehouse) Exists(label *taskgraph.Label, patch *grid.Patch) bool {
	return w.vars[varKey{label, patch.ID}].live
}

// Bytes returns the variable's storage footprint, or 0 if it is not
// allocated.
func (w *Warehouse) Bytes(label *taskgraph.Label, patch *grid.Patch) int64 {
	if e := w.vars[varKey{label, patch.ID}]; e.live {
		return e.bytes
	}
	return 0
}

// FreeAll releases every variable's bytes back to the core group and marks
// it free. The storage stays with the variable for its next Allocate, so
// a caller that keeps a freed field sees it overwritten next step.
func (w *Warehouse) FreeAll() {
	for k, e := range w.vars {
		if e.live {
			w.cg.Free(e.bytes)
			e.live = false
			w.vars[k] = e
		}
	}
}

// Pair is the old/new warehouse pair of one rank.
type Pair struct {
	Old *Warehouse
	New *Warehouse
}

// NewPair creates an empty warehouse pair.
func NewPair(mode Mode, cg *sw26010.CoreGroup) *Pair {
	return &Pair{Old: NewWarehouse(mode, cg), New: NewWarehouse(mode, cg)}
}

// Select returns the warehouse named by the dependency selector.
func (p *Pair) Select(sel taskgraph.DWSel) *Warehouse {
	if sel == taskgraph.OldDW {
		return p.Old
	}
	return p.New
}

// Swap completes a timestep: the old warehouse's variables are freed, the
// new warehouse becomes old, and the emptied one is the new warehouse,
// whose variables keep their storage for the next step's allocations.
func (p *Pair) Swap() {
	p.Old.FreeAll()
	p.Old, p.New = p.New, p.Old
}
