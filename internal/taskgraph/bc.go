package taskgraph

import (
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
)

// FillBC writes l's boundary condition at time t into region of f, a
// region inside lv's domain grown by width (every ghost region of a patch
// allocated at that width is). A separable label slices its profiles from
// its cache, built once per time level over the grown domain and shared by
// every rank's fills; that is bit-identical to field.FillSeparable, since a
// profile's value at an index does not depend on the span it is evaluated
// over. Any other label evaluates BC per cell, and one without BC is zero.
func (l *Label) FillBC(f *field.Cell, region grid.Box, lv *grid.Level, width int, t float64) {
	switch {
	case l.Profile != nil:
		grown := lv.Layout.Domain.Grow(width)
		p := l.profiles.Get(lv, grown, t, func(prof []float64) {
			prof = prof[:0]
			for axis := 0; axis < 3; axis++ {
				for i := grown.Lo.Comp(axis); i < grown.Hi.Comp(axis); i++ {
					prof = append(prof, l.Profile(axis, lv.Origin[axis]+(float64(i)+0.5)*lv.Spacing[axis], t))
				}
			}
		})
		x, y, z := p.Slice(region)
		f.FillProduct(region, x, y, z)
	case l.BC != nil:
		f.FillFunc(region, func(c grid.IVec) float64 {
			x, y, z := lv.CellCenter(c)
			return l.BC(x, y, z, t)
		})
	default:
		f.Fill(region, 0)
	}
}
