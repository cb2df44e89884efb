package taskgraph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunuintah/internal/grid"
	"sunuintah/internal/runner"
	. "sunuintah/internal/taskgraph"
	"sunuintah/internal/workload"
)

// readWidth is the widest ghost width at which t reads l from the old
// warehouse.
func readWidth(t *Task, l *Label) int {
	w := 0
	for _, d := range t.Requires {
		if d.Label == l && d.DW == OldDW {
			w = max(w, d.Ghost)
		}
	}
	return w
}

// ghostsWrittenOnce checks one rank's graph and returns the first
// violation, or "". For each (label, local patch) read with ghost cells,
// every cell of the widest margin its readers require is written exactly
// once a step — by a copy or the fill of a ghost set, which the scheduler
// runs once a step however many readers hold it, or by a recv edge's
// unpack — and no other cell of the field is. Every reader there waits on
// every recv edge into the patch, and every received cell lies in some
// reader's own margin.
func ghostsWrittenOnce(g *Graph) string {
	type key struct {
		label *Label
		patch *grid.Patch
	}
	var keys []key
	readers := map[key][]*Object{}
	writes := map[key][]grid.Box{}
	run := map[*GhostSet]bool{}
	for _, o := range g.Objects {
		for _, d := range o.Task.Requires {
			if d.DW != OldDW || d.Ghost == 0 {
				continue
			}
			k := key{d.Label, o.Patch}
			rs := readers[k]
			if len(rs) == 0 {
				keys = append(keys, k)
			}
			if len(rs) == 0 || rs[len(rs)-1] != o {
				readers[k] = append(rs, o)
			}
		}
		for _, gs := range o.Ghosts {
			if run[gs] {
				continue
			}
			run[gs] = true
			k := key{gs.Label, gs.Patch}
			for _, cr := range gs.Copies {
				writes[k] = append(writes[k], cr.Regions...)
			}
			writes[k] = append(writes[k], gs.Fill...)
		}
	}
	for _, e := range g.Recvs {
		k := key{e.Label, e.Dst}
		writes[k] = append(writes[k], e.Regions...)
		rs := readers[k]
		if !reflect.DeepEqual(indices(e.DstObjs), indices(rs)) {
			return fmt.Sprintf("recv %s %v->%v releases objects %v; the readers are %v",
				e.Label.Name(), e.Src, e.Dst, indices(e.DstObjs), indices(rs))
		}
		reach := 0
		for _, r := range rs {
			reach = max(reach, readWidth(r.Task, e.Label))
		}
		for _, b := range e.Regions {
			if !e.Dst.Box.Grow(reach).ContainsBox(b) {
				return fmt.Sprintf("recv %s %v->%v carries %v, which no reader reads", e.Label.Name(), e.Src, e.Dst, b)
			}
		}
	}
	for k := range writes {
		if readers[k] == nil {
			return fmt.Sprintf("%s is written on %v, where no task reads it with ghost cells", k.label.Name(), k.patch)
		}
	}
	for _, k := range keys {
		w := 0
		for _, r := range readers[k] {
			w = max(w, readWidth(r.Task, k.label))
		}
		margin := k.patch.Box.Grow(w)
		var cells int64
		bs := writes[k]
		for i, b := range bs {
			if !margin.ContainsBox(b) || !b.Intersect(k.patch.Box).Empty() {
				return fmt.Sprintf("%s on %v: %v is outside the width-%d margin", k.label.Name(), k.patch, b, w)
			}
			for _, o := range bs[:i] {
				if !b.Intersect(o).Empty() {
					return fmt.Sprintf("%s on %v: cells of %v are written twice a step", k.label.Name(), k.patch, b.Intersect(o))
				}
			}
			cells += b.NumCells()
		}
		if want := margin.NumCells() - k.patch.Box.NumCells(); cells != want {
			return fmt.Sprintf("%s on %v: %d of the width-%d margin's %d cells are written", k.label.Name(), k.patch, cells, w, want)
		}
	}
	return ""
}

// checkGhostsOnce compiles every rank and holds each graph to the ghost
// invariant. It reports false, having logged nothing, when a rank does not
// compile.
func checkGhostsOnce(t *testing.T, name string, lv *grid.Level, tasks []*Task, assign []int, ranks int) bool {
	t.Helper()
	for r := 0; r < ranks; r++ {
		g, err := Compile(lv, tasks, assign, r)
		if err != nil {
			return false
		}
		if d := ghostsWrittenOnce(g); d != "" {
			t.Fatalf("%s rank %d: %s", name, r, d)
		}
	}
	return true
}

func checkSpecGhostsOnce(t *testing.T, spec runner.Spec) {
	t.Helper()
	lv, tasks, assign, ranks := specProblem(t, spec)
	if !checkGhostsOnce(t, spec.String(), lv, tasks, assign, ranks) {
		t.Fatalf("%s does not compile", spec)
	}
}

// Every ghost cell is produced once a step: on every job of the default
// mixed-physics scenario and on random graphs that read labels at several
// widths. TestCompileMatchesReferenceOnPaperMatrix holds every rank of the
// paper's 250-case matrix to the same invariant as it compiles it.
func TestGhostCellsWrittenOncePerStep(t *testing.T) {
	t.Run("mixed-physics", func(t *testing.T) {
		jobs, err := workload.DefaultScenario().Expand()
		if err != nil {
			t.Fatal(err)
		}
		mixed := 0
		for _, j := range jobs {
			checkSpecGhostsOnce(t, j.Spec)
			if j.Spec.Physics != "" {
				mixed++
			}
		}
		if mixed == 0 {
			t.Fatal("the scenario has no mixed-physics job")
		}
		t.Logf("%d jobs, %d of them mixed-physics", len(jobs), mixed)
	})
	t.Run("random-multi-width", func(t *testing.T) {
		checked, wide := 0, 0
		f := func(seed int64) bool {
			p, err := newRandomProblem(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if checkGhostsOnce(t, fmt.Sprintf("seed %d", seed), p.level, p.tasks, p.assign, p.ranks) {
				checked++
				if twoWidths(p.tasks) {
					wide++
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
		if wide == 0 {
			t.Fatal("no compiled problem reads a label at two widths")
		}
		t.Logf("%d of 300 problems compiled, %d of them read a label at two widths", checked, wide)
	})
}

// twoWidths reports whether the tasks read some old-warehouse label at two
// different ghost widths above 0.
func twoWidths(tasks []*Task) bool {
	seen := map[*Label]int{}
	for _, t := range tasks {
		for _, d := range t.Requires {
			if d.DW != OldDW || d.Ghost == 0 {
				continue
			}
			if w, ok := seen[d.Label]; ok && w != d.Ghost {
				return true
			}
			seen[d.Label] = d.Ghost
		}
	}
	return false
}
