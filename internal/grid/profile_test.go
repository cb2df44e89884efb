package grid

import "testing"

// TestProfileRingBuildsOncePerKey checks that a key is built once while
// it stays among the last four, again once evicted, and that Slice cuts
// each axis at the region's offsets from the box.
func TestProfileRingBuildsOncePerKey(t *testing.T) {
	lv, err := NewUnitCubeLevel(IV(8, 6, 4), IV(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	box := lv.Layout.Domain.Grow(1)
	var r ProfileRing
	builds := 0
	get := func(tl float64) Profiles {
		return r.Get(lv, box, tl, func(prof []float64) {
			builds++
			for i := range prof {
				prof[i] = float64(i) + tl
			}
		})
	}
	for _, c := range []struct {
		tl     float64
		builds int
	}{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {0, 4}, {4, 5}, {0, 6}} {
		get(c.tl)
		if builds != c.builds {
			t.Fatalf("after t=%v: %d builds, want %d", c.tl, builds, c.builds)
		}
	}
	x, y, z := get(4).Slice(NewBox(IV(0, -1, 2), IV(3, 6, 5)))
	// box is (-1,-1,-1)-(9,7,5): x holds 10 values, y 8, z 6.
	if x[0] != 1+4 || len(x) != 3 || y[0] != 10+4 || len(y) != 7 || z[0] != 18+3+4 || len(z) != 3 {
		t.Errorf("Slice = %v %v %v", x, y, z)
	}
}
