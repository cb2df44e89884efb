package taskgraph

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

// TestFillBCEvaluatesOncePerTimeLevel fills every boundary region of every
// patch of a 3x2x2 layout, at ghost widths 1 and 2, from four goroutines at
// once, and requires each cell to be the per-cell BC's bits, and the
// profile to run once per (axis, index of the grown domain) per time
// level: again for a new level, never again for one still cached.
func TestFillBCEvaluatesOncePerTimeLevel(t *testing.T) {
	for _, width := range []int{1, 2} {
		lv := level(t, grid.IV(12, 10, 8), grid.IV(3, 2, 2))
		var calls atomic.Int64
		u := NewSeparableLabel("u", func(axis int, s, t float64) float64 {
			calls.Add(1)
			return math.Exp(-s*s-t) * float64(axis+1)
		})
		task := advanceTask(u)
		task.Requires[0].Ghost = width
		var sets []*GhostSet
		for rank := 0; rank < 3; rank++ {
			g, err := Compile(lv, []*Task{task}, []int{0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2}, rank)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range g.Objects {
				sets = append(sets, o.Ghosts...)
			}
		}
		grown := lv.Layout.Domain.Grow(width).Size()
		once := int64(grown.X + grown.Y + grown.Z)
		for _, c := range []struct {
			tl    float64
			calls int64
		}{{0.25, once}, {0.25, 0}, {0.5, once}, {0.25, 0}} {
			calls.Store(0)
			got := make([]*field.Cell, len(sets))
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(sets); i += 4 {
						gs := sets[i]
						got[i] = field.NewCellWithGhost(gs.Patch.Box, width)
						for _, r := range gs.Fill {
							u.FillBC(got[i], r, lv, width, c.tl)
						}
					}
				}(w)
			}
			wg.Wait()
			if n := calls.Load(); n != c.calls {
				t.Errorf("width %d, t=%v: %d profile evaluations, want %d", width, c.tl, n, c.calls)
			}
			filled := 0
			for i, gs := range sets {
				for _, r := range gs.Fill {
					r.ForEach(func(cell grid.IVec) {
						x, y, z := lv.CellCenter(cell)
						if want := u.BC(x, y, z, c.tl); math.Float64bits(got[i].At(cell)) != math.Float64bits(want) {
							t.Fatalf("width %d, t=%v: patch %d cell %v = %v, BC %v", width, c.tl, gs.Patch.ID, cell, got[i].At(cell), want)
						}
						filled++
					})
				}
			}
			if filled == 0 {
				t.Fatalf("width %d: the layout has no boundary region", width)
			}
		}
	}
}
