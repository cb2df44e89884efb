package grid

import (
	"fmt"
	"slices"
	"sync"
)

// Patch is one rectangular piece of the computational grid. Patches carry a
// global ID (dense, 0-based, in z-major layout order) and their position in
// the patch layout.
type Patch struct {
	ID  int
	Pos IVec // position in the patch layout (0..Counts-1 per axis)
	Box Box  // cells owned by the patch
}

// String formats as "patch#id pos box".
func (p *Patch) String() string {
	return fmt.Sprintf("patch#%d %v %v", p.ID, p.Pos, p.Box)
}

// NumCells is the number of interior (owned) cells.
func (p *Patch) NumCells() int64 { return p.Box.NumCells() }

// Layout is a regular partition of a domain box into Counts.X × Counts.Y ×
// Counts.Z equally sized patches (the paper uses a fixed 8x8x2 layout of 128
// patches). The domain size must be divisible by the patch counts.
type Layout struct {
	Domain    Box
	Counts    IVec
	PatchSize IVec
	patches   []*Patch

	// ghosts memoises the ghost geometry: one table per ghost width, built
	// for every patch on the width's first use. Every rank's graph
	// compilation asks for the regions of its patches and of all their
	// neighbours, so without the table each patch's decomposition is
	// derived 27 times per simulation. A table is immutable once built;
	// ghostMu guards the map, so the layout stays usable from any goroutine.
	ghostMu sync.Mutex
	ghosts  map[int][]patchGhosts
}

// patchGhosts is one patch's ghost geometry at one width.
type patchGhosts struct {
	regions []GhostRegion
	nbrs    []*Patch
}

// NewLayout partitions domain into counts patches per axis.
func NewLayout(domain Box, counts IVec) (*Layout, error) {
	if domain.Empty() {
		return nil, fmt.Errorf("grid: empty domain %v", domain)
	}
	if !counts.AllPositive() {
		return nil, fmt.Errorf("grid: patch counts must be positive, got %v", counts)
	}
	size := domain.Size()
	if size.X%counts.X != 0 || size.Y%counts.Y != 0 || size.Z%counts.Z != 0 {
		return nil, fmt.Errorf("grid: domain %v not divisible by patch counts %v", size, counts)
	}
	ps := size.Div(counts)
	l := &Layout{Domain: domain, Counts: counts, PatchSize: ps}
	l.patches = make([]*Patch, 0, counts.Volume())
	id := 0
	for pz := 0; pz < counts.Z; pz++ {
		for py := 0; py < counts.Y; py++ {
			for px := 0; px < counts.X; px++ {
				pos := IV(px, py, pz)
				lo := domain.Lo.Add(pos.Mul(ps))
				l.patches = append(l.patches, &Patch{
					ID:  id,
					Pos: pos,
					Box: BoxFromSize(lo, ps),
				})
				id++
			}
		}
	}
	return l, nil
}

// NumPatches returns the total patch count.
func (l *Layout) NumPatches() int { return len(l.patches) }

// Patch returns the patch with the given ID.
func (l *Layout) Patch(id int) *Patch {
	if id < 0 || id >= len(l.patches) {
		panic(fmt.Sprintf("grid: patch id %d out of range [0,%d)", id, len(l.patches)))
	}
	return l.patches[id]
}

// Patches returns all patches in ID order. The returned slice is shared;
// callers must not modify it.
func (l *Layout) Patches() []*Patch { return l.patches }

// PatchAt returns the patch at layout position pos, or nil if out of range.
func (l *Layout) PatchAt(pos IVec) *Patch {
	if pos.X < 0 || pos.Y < 0 || pos.Z < 0 ||
		pos.X >= l.Counts.X || pos.Y >= l.Counts.Y || pos.Z >= l.Counts.Z {
		return nil
	}
	id := (pos.Z*l.Counts.Y+pos.Y)*l.Counts.X + pos.X
	return l.patches[id]
}

// GhostRegion describes one rectangular piece of a patch's ghost margin and
// where its data comes from: either a neighbouring patch (Src != nil) or
// the physical boundary (Src == nil), to be filled by boundary conditions.
type GhostRegion struct {
	Region Box    // cells in the ghost margin of the destination patch
	Src    *Patch // owning patch, or nil for a physical-boundary region
}

// GhostRegions returns the decomposition of patch p's ghost margin of the
// given width into source regions. Neighbour regions cover the part of the
// margin inside the domain; boundary regions cover the part outside.
//
// The decomposition walks the 26 (for width >= 1) neighbour offsets so each
// returned region maps to exactly one source patch; regions are returned in
// deterministic offset order (z-major). The slice is computed once per
// layout and shared between callers, concurrent ones included: it must not
// be modified.
func (l *Layout) GhostRegions(p *Patch, width int) []GhostRegion {
	if width <= 0 {
		return nil
	}
	return l.ghostsOf(p, width).regions
}

// ghostsOf returns p's ghost geometry at the given width from the width's
// table, building the table on first use. p must be one of l's own
// patches; another layout's patch is a caller bug.
func (l *Layout) ghostsOf(p *Patch, width int) patchGhosts {
	if p.ID < 0 || p.ID >= len(l.patches) || l.patches[p.ID] != p {
		panic(fmt.Sprintf("grid: %v is not a patch of this layout", p))
	}
	l.ghostMu.Lock()
	defer l.ghostMu.Unlock()
	t, ok := l.ghosts[width]
	if !ok {
		t = l.buildGhosts(width)
		if l.ghosts == nil {
			l.ghosts = map[int][]patchGhosts{}
		}
		l.ghosts[width] = t
	}
	return t[p.ID]
}

// buildGhosts derives every patch's regions and, from them, its distinct
// source patches in ascending ID order. All patches share one slab of
// regions and one of neighbours, sized for 26 regions a patch (one per
// direction whenever the width fits in a patch).
func (l *Layout) buildGhosts(width int) []patchGhosts {
	t := make([]patchGhosts, len(l.patches))
	regions := make([]GhostRegion, 0, 26*len(l.patches))
	nbrs := make([]*Patch, 0, 26*len(l.patches))
	for i, p := range l.patches {
		r0, n0 := len(regions), len(nbrs)
		regions = l.appendGhostRegions(regions, p, width)
		for _, gr := range regions[r0:] {
			if gr.Src != nil {
				nbrs = append(nbrs, gr.Src)
			}
		}
		slices.SortFunc(nbrs[n0:], func(a, b *Patch) int { return a.ID - b.ID })
		nbrs = nbrs[:n0+len(slices.Compact(nbrs[n0:]))]
		t[i] = patchGhosts{regions: clipFrom(regions, r0), nbrs: clipFrom(nbrs, n0)}
	}
	return t
}

// clipFrom returns s[from:] capacity-clipped, so a caller's append copies
// instead of writing into the next patch's window; nil when it is empty.
func clipFrom[T any](s []T, from int) []T {
	if len(s) == from {
		return nil
	}
	return s[from:len(s):len(s)]
}

// ghostRegions derives the decomposition GhostRegions hands out.
func (l *Layout) ghostRegions(p *Patch, width int) []GhostRegion {
	return l.appendGhostRegions(nil, p, width)
}

// appendGhostRegions appends p's decomposition at the given width to out.
func (l *Layout) appendGhostRegions(out []GhostRegion, p *Patch, width int) []GhostRegion {
	grown := p.Box.Grow(width)
	var outside [6]Box
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				region := sideRegion(p.Box, grown, IV(dx, dy, dz))
				if region.Empty() {
					continue
				}
				inDomain := region.Intersect(l.Domain)
				if !inDomain.Empty() {
					// One neighbour patch owns the whole in-domain part
					// because ghost width never exceeds the patch size in
					// practice; split defensively if it straddles patches.
					out = l.splitByOwners(out, inDomain)
				}
				if inDomain != region {
					// The rest (outside the domain) is physical boundary.
					for _, ob := range subtractBox(outside[:0], region, l.Domain) {
						out = append(out, GhostRegion{Region: ob, Src: nil})
					}
				}
			}
		}
	}
	return out
}

// sideRegion returns the part of grown \ box lying in direction dir.
func sideRegion(box, grown Box, dir IVec) Box {
	var r Box
	r.Lo.X, r.Hi.X = sideSpan(dir.X, box.Lo.X, box.Hi.X, grown.Lo.X, grown.Hi.X)
	r.Lo.Y, r.Hi.Y = sideSpan(dir.Y, box.Lo.Y, box.Hi.Y, grown.Lo.Y, grown.Hi.Y)
	r.Lo.Z, r.Hi.Z = sideSpan(dir.Z, box.Lo.Z, box.Hi.Z, grown.Lo.Z, grown.Hi.Z)
	return r
}

// sideSpan is one axis of sideRegion: the span below (d = -1), across
// (0) or above (1) [lo, hi) within [glo, ghi).
func sideSpan(d, lo, hi, glo, ghi int) (int, int) {
	switch d {
	case -1:
		return glo, lo
	case 1:
		return hi, ghi
	}
	return lo, hi
}

// splitByOwners appends an in-domain box's per-owning-patch pieces to out.
func (l *Layout) splitByOwners(out []GhostRegion, b Box) []GhostRegion {
	// Patches owning b's corners bound the patch-position range to scan.
	rel := b.Lo.Sub(l.Domain.Lo)
	lop := rel.Div(l.PatchSize)
	relHi := b.Hi.Sub(IV(1, 1, 1)).Sub(l.Domain.Lo)
	hip := relHi.Div(l.PatchSize)
	for pz := lop.Z; pz <= hip.Z; pz++ {
		for py := lop.Y; py <= hip.Y; py++ {
			for px := lop.X; px <= hip.X; px++ {
				src := l.PatchAt(IV(px, py, pz))
				piece := b.Intersect(src.Box)
				if !piece.Empty() {
					out = append(out, GhostRegion{Region: piece, Src: src})
				}
			}
		}
	}
	return out
}

// subtractBox appends b minus cut, as disjoint boxes, to out.
func subtractBox(out []Box, b, cut Box) []Box {
	inter := b.Intersect(cut)
	if inter.Empty() {
		return append(out, b)
	}
	if inter == b {
		return out
	}
	rest := b
	for axis := 0; axis < 3; axis++ {
		// Slice off the parts of rest below and above inter on this axis.
		if lo, cutLo := rest.Lo.Comp(axis), inter.Lo.Comp(axis); lo < cutLo {
			below := rest
			below.Hi = below.Hi.WithComp(axis, cutLo)
			out = append(out, below)
			rest.Lo = rest.Lo.WithComp(axis, cutLo)
		}
		if hi, cutHi := rest.Hi.Comp(axis), inter.Hi.Comp(axis); hi > cutHi {
			above := rest
			above.Lo = above.Lo.WithComp(axis, cutHi)
			out = append(out, above)
			rest.Hi = rest.Hi.WithComp(axis, cutHi)
		}
	}
	return out
}

// Neighbours returns the distinct patches that contribute ghost data to p
// for the given ghost width, in ascending ID order. Like GhostRegions, the
// slice is shared and must not be modified.
func (l *Layout) Neighbours(p *Patch, width int) []*Patch {
	if width <= 0 {
		return nil
	}
	return l.ghostsOf(p, width).nbrs
}
