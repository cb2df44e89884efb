package core

import (
	"fmt"
	"slices"

	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// MemCheckpoint is a simulation's persistent state held in memory: the
// step counter, simulated time level, and every old-warehouse variable's
// interior values (ghosts are rebuilt each step). RunResilient restarts
// from it without ever serialising (the Uintah analogue is the UDA data
// archive).
type MemCheckpoint struct {
	Cells       grid.IVec
	PatchCounts grid.IVec
	StepsDone   int
	TimeDone    float64
	Labels      []string
	// Data[l][p] holds label l's interior values on patch p, in
	// grid-box ForEach order.
	Data [][][]float64
}

// persistentLabels returns the labels that carry state between steps —
// exactly those required from the old warehouse — in deterministic order,
// erroring on duplicate names (the checkpoint format identifies labels by
// name). Checkpoint and RestoreFromMemory move this set.
func (s *Simulation) persistentLabels() ([]*taskgraph.Label, error) {
	var labels []*taskgraph.Label
	seenPtr := map[*taskgraph.Label]bool{}
	seenName := map[string]bool{}
	for _, t := range s.Prob.Tasks {
		for _, d := range t.Requires {
			if d.DW != taskgraph.OldDW || seenPtr[d.Label] {
				continue
			}
			if seenName[d.Label.Name()] {
				return nil, fmt.Errorf("core: duplicate label name %q in checkpointed state", d.Label.Name())
			}
			seenPtr[d.Label] = true
			seenName[d.Label.Name()] = true
			labels = append(labels, d.Label)
		}
	}
	return labels, nil
}

// Checkpoint captures the simulation's persistent state in memory.
// Functional mode only (a timing-only run has no field data to preserve).
func (s *Simulation) Checkpoint() (*MemCheckpoint, error) {
	if !s.Cfg.Scheduler.Functional {
		return nil, fmt.Errorf("core: checkpointing requires functional mode")
	}
	labels, err := s.persistentLabels()
	if err != nil {
		return nil, err
	}
	f := &MemCheckpoint{
		Cells:       s.Cfg.Cells,
		PatchCounts: s.Cfg.PatchCounts,
		StepsDone:   s.stepsDone,
		TimeDone:    s.timeDone,
	}
	layout := s.Level.Layout
	for _, l := range labels {
		f.Labels = append(f.Labels, l.Name())
		perPatch := make([][]float64, layout.NumPatches())
		for _, rk := range s.Ranks {
			for _, p := range rk.Graph().LocalPatches {
				// Patch-filtered tasks leave the label unallocated on
				// foreign patches; their slots stay nil in the checkpoint.
				if !rk.DWs.Old.Exists(l, p) {
					continue
				}
				perPatch[p.ID] = rk.DWs.Old.Get(l, p).Pack(p.Box, nil)
			}
		}
		f.Data = append(f.Data, perPatch)
	}
	return f, nil
}

// RestoreFromMemory loads state captured by Checkpoint into this
// simulation, which must have the same grid, patch layout and label set
// (the rank count and scheduler variant may differ). The simulation must
// not have run yet; after restoring, Run continues from the checkpointed
// step.
func (s *Simulation) RestoreFromMemory(f *MemCheckpoint) error {
	if !s.Cfg.Scheduler.Functional {
		return fmt.Errorf("core: checkpointing requires functional mode")
	}
	if s.stepsDone != 0 {
		return fmt.Errorf("core: restore into a freshly constructed simulation (already ran %d steps)", s.stepsDone)
	}
	if f.Cells != s.Cfg.Cells || f.PatchCounts != s.Cfg.PatchCounts {
		return fmt.Errorf("core: checkpoint grid %v/%v does not match simulation %v/%v",
			f.Cells, f.PatchCounts, s.Cfg.Cells, s.Cfg.PatchCounts)
	}
	labels, err := s.persistentLabels()
	if err != nil {
		return err
	}
	byName := map[string]*taskgraph.Label{}
	for _, l := range labels {
		byName[l.Name()] = l
	}
	if len(f.Labels) != len(labels) {
		return fmt.Errorf("core: checkpoint has %d labels, simulation has %d", len(f.Labels), len(labels))
	}
	if len(f.Data) != len(f.Labels) {
		return fmt.Errorf("core: checkpoint has data for %d labels, names %d", len(f.Data), len(f.Labels))
	}
	// Check the whole checkpoint before any value lands in a warehouse, so a
	// rejected restore leaves the simulation as it was.
	restored := make([]*taskgraph.Label, len(f.Labels))
	for li, name := range f.Labels {
		l, ok := byName[name]
		if !ok {
			return fmt.Errorf("core: checkpoint label %q not in this problem", name)
		}
		if slices.Contains(restored, l) {
			return fmt.Errorf("core: checkpoint label %q appears twice", name)
		}
		restored[li] = l
		if n := len(f.Data[li]); n != s.Level.Layout.NumPatches() {
			return fmt.Errorf("core: checkpoint label %q covers %d patches, layout has %d",
				name, n, s.Level.Layout.NumPatches())
		}
		for _, rk := range s.Ranks {
			for _, p := range rk.Graph().LocalPatches {
				// A foreign-physics patch has nothing saved and nothing allocated.
				var want int64
				if rk.DWs.Old.Exists(l, p) {
					want = p.NumCells()
				}
				if got := int64(len(f.Data[li][p.ID])); got != want {
					return fmt.Errorf("core: checkpoint patch %d has %d values, want %d", p.ID, got, want)
				}
			}
		}
	}
	for li, l := range restored {
		for _, rk := range s.Ranks {
			for _, p := range rk.Graph().LocalPatches {
				if data := f.Data[li][p.ID]; len(data) > 0 {
					rk.DWs.Old.Get(l, p).Unpack(p.Box, data)
				}
			}
		}
	}
	s.stepsDone = f.StepsDone
	s.timeDone = f.TimeDone
	return nil
}
