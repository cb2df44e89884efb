// Package dw implements Uintah's data-warehouse abstraction: the old
// warehouse holds the previous timestep's variables, tasks read from it and
// populate the new warehouse, and at the end of the timestep the warehouses
// swap. Variable storage is accounted against the owning core group's
// memory, reproducing the paper's Table III out-of-memory cases.
//
// A warehouse operates in one of two modes: functional (variables carry
// real field data) or timing-only (only sizes are tracked, so billion-cell
// problems can be scheduled without allocating their storage).
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
// exhausted. Allocating an existing variable is an error.
func (w *Warehouse) Allocate(label *taskgraph.Label, patch *grid.Patch, ghost int) error {
	k := varKey{label, patch.ID}
	if _, ok := w.vars[k]; ok {
		return fmt.Errorf("dw: variable %q already allocated on %v", label.Name(), patch)
	}
	bytes := patch.Box.Grow(ghost).NumCells() * 8
	if err := w.cg.Allocate(bytes); err != nil {
		return err
	}
	e := varEntry{bytes: bytes}
	if w.mode == Functional {
		// Pooled storage: FreeAll recycles the backing array, so the
		// per-step allocate/free churn of the warehouse swap is
		// allocation-free in steady state. The pool zeroes on reuse,
		// preserving NewCell's zero-value contract.
		e.data = field.NewCellPooledWithGhost(patch.Box, ghost)
	}
	w.vars[k] = e
	return nil
}

// Get returns the variable's field data, or nil in timing-only mode. It
// panics if the variable was never allocated — a scheduling bug.
func (w *Warehouse) Get(label *taskgraph.Label, patch *grid.Patch) *field.Cell {
	e, ok := w.vars[varKey{label, patch.ID}]
	if !ok {
		panic(fmt.Sprintf("dw: variable %q not allocated on %v", label.Name(), patch))
	}
	return e.data
}

// Exists reports whether the variable is allocated.
func (w *Warehouse) Exists(label *taskgraph.Label, patch *grid.Patch) bool {
	_, ok := w.vars[varKey{label, patch.ID}]
	return ok
}

// Bytes returns the variable's storage footprint.
func (w *Warehouse) Bytes(label *taskgraph.Label, patch *grid.Patch) int64 {
	e, ok := w.vars[varKey{label, patch.ID}]
	if !ok {
		return 0
	}
	return e.bytes
}

// FreeAll releases every variable back to the core group and recycles its
// storage — callers must not retain references to a freed field's data.
func (w *Warehouse) FreeAll() {
	for k, e := range w.vars {
		w.cg.Free(e.bytes)
		e.data.Recycle()
		delete(w.vars, k)
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
// new warehouse becomes old, and the emptied one is the new warehouse.
func (p *Pair) Swap() {
	p.Old.FreeAll()
	p.Old, p.New = p.New, p.Old
}
