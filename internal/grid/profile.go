package grid

import "sync"

// Profiles are values along the x, y and z extents of a box of a level at
// one time level, indexed from the box's low corner. They are never
// written after a ProfileRing builds them, so any goroutine reads them
// unlocked.
type Profiles struct {
	lv   *Level
	box  Box
	t    float64
	prof []float64 // x, then y, then z
}

// Slice returns the profiles over region, which must lie in the box.
func (p Profiles) Slice(region Box) (x, y, z []float64) {
	n := p.box.Size()
	lo, hi := region.Lo.Sub(p.box.Lo), region.Hi.Sub(p.box.Lo)
	x, y, z = p.prof[:n.X], p.prof[n.X:n.X+n.Y], p.prof[n.X+n.Y:]
	return x[lo.X:hi.X], y[lo.Y:hi.Y], z[lo.Z:hi.Z]
}

// profileLevels is how many time levels a ProfileRing keeps: a rank a step
// behind the others, or a job still draining the previous step, finds its
// profiles too.
const profileLevels = 4

// ProfileRing memoises profiles per (level, box, time level) for the last
// profileLevels keys: each key costs one build and one allocation, however
// many regions slice it. The zero value is ready to use.
type ProfileRing struct {
	mu   sync.Mutex
	ring [profileLevels]Profiles
	next int
}

// Get returns the profiles of box on lv at time level t. On first use it
// calls fill under the lock with one slice of nx+ny+nz values to write, x
// then y then z, so no key is built twice while it stays in the ring; fill
// must not call Get on the same ring.
func (r *ProfileRing) Get(lv *Level, box Box, t float64, fill func(prof []float64)) Profiles {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.ring {
		if p.lv == lv && p.box == box && p.t == t {
			return p
		}
	}
	n := box.Size()
	p := Profiles{lv: lv, box: box, t: t, prof: make([]float64, n.X+n.Y+n.Z)}
	fill(p.prof)
	r.ring[r.next] = p
	r.next = (r.next + 1) % profileLevels
	return p
}
