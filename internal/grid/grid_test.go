package grid

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestIVecArithmetic(t *testing.T) {
	a, b := IV(1, 2, 3), IV(4, 5, 6)
	if got := a.Add(b); got != IV(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != IV(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != IV(4, 10, 18) {
		t.Errorf("Mul = %v", got)
	}
	if got := b.Div(a); got != IV(4, 2, 2) {
		t.Errorf("Div = %v", got)
	}
	if got := a.Min(IV(2, 1, 5)); got != IV(1, 1, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(IV(2, 1, 5)); got != IV(2, 2, 5) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Volume(); got != 6 {
		t.Errorf("Volume = %d", got)
	}
	if a.String() != "1x2x3" {
		t.Errorf("String = %q", a.String())
	}
}

func TestIVecCompAccess(t *testing.T) {
	v := IV(7, 8, 9)
	for axis, want := range []int{7, 8, 9} {
		if got := v.Comp(axis); got != want {
			t.Errorf("Comp(%d) = %d, want %d", axis, got, want)
		}
	}
	if got := v.WithComp(1, 42); got != IV(7, 42, 9) {
		t.Errorf("WithComp = %v", got)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(IV(0, 0, 0), IV(4, 3, 2))
	if b.NumCells() != 24 {
		t.Errorf("NumCells = %d", b.NumCells())
	}
	if b.Empty() {
		t.Error("box should not be empty")
	}
	if !b.Contains(IV(3, 2, 1)) {
		t.Error("should contain high corner cell")
	}
	if b.Contains(IV(4, 0, 0)) {
		t.Error("Hi is exclusive")
	}
	empty := NewBox(IV(2, 0, 0), IV(2, 5, 5))
	if !empty.Empty() || empty.NumCells() != 0 {
		t.Error("degenerate box should be empty")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox(IV(0, 0, 0), IV(10, 10, 10))
	b := NewBox(IV(5, 5, 5), IV(15, 15, 15))
	got := a.Intersect(b)
	if got != NewBox(IV(5, 5, 5), IV(10, 10, 10)) {
		t.Errorf("Intersect = %v", got)
	}
	c := NewBox(IV(20, 20, 20), IV(30, 30, 30))
	if !a.Intersect(c).Empty() {
		t.Error("disjoint boxes intersect")
	}
}

func TestBoxGrowAndSurface(t *testing.T) {
	b := BoxFromSize(IV(0, 0, 0), IV(16, 16, 8))
	g := b.Grow(1)
	if g.Size() != IV(18, 18, 10) {
		t.Errorf("grown size = %v", g.Size())
	}
	// The one-cell shell: faces, edges and corners.
	if shell := g.NumCells() - b.NumCells(); shell != 2*(16*16+16*8+16*8)+4*(16+16+8)+8 {
		t.Errorf("shell cells = %d", shell)
	}
	if got := b.Grow(-4).Size(); got != IV(8, 8, 0) {
		t.Errorf("negative grow size = %v", got)
	}
}

func TestBoxForEachOrderAndCount(t *testing.T) {
	b := BoxFromSize(IV(1, 2, 3), IV(2, 2, 2))
	var cells []IVec
	b.ForEach(func(c IVec) { cells = append(cells, c) })
	if len(cells) != 8 {
		t.Fatalf("visited %d cells", len(cells))
	}
	if cells[0] != IV(1, 2, 3) || cells[1] != IV(2, 2, 3) {
		t.Errorf("x must vary fastest: %v", cells[:2])
	}
	if cells[7] != IV(2, 3, 4) {
		t.Errorf("last cell = %v", cells[7])
	}
}

func TestLayoutPaperConfiguration(t *testing.T) {
	// The paper's smallest problem: 128x128x1024 grid, 8x8x2 patches of
	// 16x16x512.
	l, err := NewLayout(BoxFromSize(IV(0, 0, 0), IV(128, 128, 1024)), IV(8, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumPatches() != 128 {
		t.Fatalf("NumPatches = %d, want 128", l.NumPatches())
	}
	if l.PatchSize != IV(16, 16, 512) {
		t.Fatalf("PatchSize = %v", l.PatchSize)
	}
	// Patches tile the domain exactly: total cells match, no overlaps.
	var total int64
	for _, p := range l.Patches() {
		total += p.NumCells()
	}
	if total != l.Domain.NumCells() {
		t.Errorf("patch cells %d != domain cells %d", total, l.Domain.NumCells())
	}
}

func TestLayoutRejectsBadConfigs(t *testing.T) {
	dom := BoxFromSize(IV(0, 0, 0), IV(10, 10, 10))
	if _, err := NewLayout(dom, IV(3, 1, 1)); err == nil {
		t.Error("indivisible layout should fail")
	}
	if _, err := NewLayout(dom, IV(0, 1, 1)); err == nil {
		t.Error("zero counts should fail")
	}
	if _, err := NewLayout(NewBox(IV(0, 0, 0), IV(0, 5, 5)), IV(1, 1, 1)); err == nil {
		t.Error("empty domain should fail")
	}
}

// patchContaining returns the patch whose box holds cell c, or nil if c is
// outside the domain, by scanning every patch.
func patchContaining(l *Layout, c IVec) *Patch {
	for _, p := range l.Patches() {
		if p.Box.Contains(c) {
			return p
		}
	}
	return nil
}

// TestPatchContaining: the patch boxes tile the domain, and the cell at
// c lies in the patch at position c / PatchSize.
func TestPatchContaining(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(8, 8, 8)), IV(2, 2, 2))
	if p := patchContaining(l, IV(5, 3, 7)); p == nil || p.Pos != IV(1, 0, 1) {
		t.Fatalf("patch of (5,3,7) = %v", p)
	}
	if patchContaining(l, IV(8, 0, 0)) != nil {
		t.Error("outside cell should lie in no patch")
	}
	l.Domain.ForEach(func(c IVec) {
		n := 0
		for _, p := range l.Patches() {
			if p.Box.Contains(c) {
				n++
			}
		}
		if p := l.PatchAt(c.Div(l.PatchSize)); n != 1 || !p.Box.Contains(c) {
			t.Fatalf("cell %v: in %d patches, PatchAt gives %v", c, n, p)
		}
	})
}

func TestGhostRegionsCoverMarginExactly(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(8, 8, 8)), IV(2, 2, 2))
	for _, p := range l.Patches() {
		regions := l.GhostRegions(p, 1)
		// Regions must exactly tile Grow(1) minus the patch box.
		covered := map[IVec]int{}
		for _, gr := range regions {
			gr.Region.ForEach(func(c IVec) { covered[c]++ })
		}
		margin := p.Box.Grow(1)
		var wantCells int64 = margin.NumCells() - p.Box.NumCells()
		if int64(len(covered)) != wantCells {
			t.Fatalf("patch %v: covered %d cells, want %d", p, len(covered), wantCells)
		}
		for c, n := range covered {
			if n != 1 {
				t.Fatalf("patch %v: cell %v covered %d times", p, c, n)
			}
			if p.Box.Contains(c) || !margin.Contains(c) {
				t.Fatalf("patch %v: cell %v outside margin", p, c)
			}
		}
		// Source attribution: in-domain cells must come from the owning
		// patch; out-of-domain cells must be boundary regions.
		for _, gr := range regions {
			gr.Region.ForEach(func(c IVec) {
				owner := patchContaining(l, c)
				if owner == nil {
					if gr.Src != nil {
						t.Fatalf("cell %v outside domain attributed to %v", c, gr.Src)
					}
				} else if gr.Src == nil || gr.Src.ID != owner.ID {
					t.Fatalf("cell %v owned by %v but attributed to %v", c, owner, gr.Src)
				}
			})
		}
	}
}

func TestNeighboursCornerAndCenterCounts(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(12, 12, 12)), IV(3, 3, 3))
	corner := l.PatchAt(IV(0, 0, 0))
	if got := len(l.Neighbours(corner, 1)); got != 7 {
		t.Errorf("corner neighbours = %d, want 7", got)
	}
	center := l.PatchAt(IV(1, 1, 1))
	if got := len(l.Neighbours(center, 1)); got != 26 {
		t.Errorf("center neighbours = %d, want 26", got)
	}
	// Paper layout 8x8x2: an interior patch has 17 neighbours.
	l2, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(128, 128, 1024)), IV(8, 8, 2))
	inner := l2.PatchAt(IV(4, 4, 0))
	if got := len(l2.Neighbours(inner, 1)); got != 17 {
		t.Errorf("8x8x2 interior neighbours = %d, want 17", got)
	}
}

// Property: ghost regions never overlap the patch and always lie within the
// grown box, for random layouts and widths.
func TestPropertyGhostRegions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := IV(1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3))
		cellsPer := IV(2+rng.Intn(4), 2+rng.Intn(4), 2+rng.Intn(4))
		dom := BoxFromSize(IV(0, 0, 0), counts.Mul(cellsPer))
		l, err := NewLayout(dom, counts)
		if err != nil {
			return false
		}
		width := 1 + rng.Intn(2)
		if width >= cellsPer.X || width >= cellsPer.Y || width >= cellsPer.Z {
			width = 1
		}
		p := l.Patch(rng.Intn(l.NumPatches()))
		var cells int64
		for _, gr := range l.GhostRegions(p, width) {
			if !gr.Region.Intersect(p.Box).Empty() {
				return false
			}
			if !p.Box.Grow(width).ContainsBox(gr.Region) {
				return false
			}
			cells += gr.Region.NumCells()
		}
		return cells == p.Box.Grow(width).NumCells()-p.Box.NumCells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtractBox(t *testing.T) {
	b := BoxFromSize(IV(0, 0, 0), IV(4, 4, 4))
	cut := BoxFromSize(IV(1, 1, 1), IV(2, 2, 2))
	parts := subtractBox(nil, b, cut)
	var cells int64
	for _, p := range parts {
		cells += p.NumCells()
		if !p.Intersect(cut).Empty() {
			t.Fatalf("part %v overlaps cut", p)
		}
	}
	if cells != b.NumCells()-cut.NumCells() {
		t.Fatalf("cells = %d", cells)
	}
	// Disjoint cut returns the box unchanged.
	if parts := subtractBox(nil, b, BoxFromSize(IV(10, 10, 10), IV(1, 1, 1))); len(parts) != 1 || parts[0] != b {
		t.Fatalf("disjoint subtract = %v", parts)
	}
	// Full cut removes everything.
	if parts := subtractBox(nil, b, b); parts != nil {
		t.Fatalf("full subtract = %v", parts)
	}
}

func TestLevelCellCenters(t *testing.T) {
	lv, err := NewUnitCubeLevel(IV(10, 20, 40), IV(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := lv.CellCenter(IV(0, 0, 0))
	if x != 0.05 || y != 0.025 || z != 0.0125 {
		t.Errorf("first center = %v,%v,%v", x, y, z)
	}
	x, _, _ = lv.CellCenter(IV(9, 0, 0))
	if math.Abs(x-0.95) > 1e-12 {
		t.Errorf("last x center = %v", x)
	}
}

func TestTilingPaperTileShape(t *testing.T) {
	// 16x16x512 patch with 16x16x8 tiles: 64 tiles, one z slab each.
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(16, 16, 512)), IV(1, 1, 1))
	tl, err := NewTiling(l.Patch(0), IV(16, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if int(tl.Counts.Volume()) != 64 || tl.Counts != IV(1, 1, 64) {
		t.Fatalf("tiles = %d counts = %v", int(tl.Counts.Volume()), tl.Counts)
	}
	// The paper's working set: 41.3 KiB for a 16x16x8 tile with 1 ghost.
	ws := WorkingSetBytes(tl.Tile(IV(0, 0, 0)), 1)
	if ws != 18*18*10*8+16*16*8*8 {
		t.Fatalf("working set = %d", ws)
	}
	if float64(ws)/1024 > 64 {
		t.Fatalf("working set %d exceeds 64 KiB LDM", ws)
	}
}

func TestTilingClipsAtEdges(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(20, 16, 8)), IV(1, 1, 1))
	tl, _ := NewTiling(l.Patch(0), IV(16, 16, 8))
	if tl.Counts != IV(2, 1, 1) {
		t.Fatalf("counts = %v", tl.Counts)
	}
	edge := tl.Tile(IV(1, 0, 0))
	if edge.Box.Size() != IV(4, 16, 8) {
		t.Fatalf("clipped tile size = %v", edge.Box.Size())
	}
}

func TestAssignZOneSlabPerCPE(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(16, 16, 512)), IV(1, 1, 1))
	tl, _ := NewTiling(l.Patch(0), IV(16, 16, 8))
	assign := tl.AssignZ(64)
	for w, tiles := range assign {
		if len(tiles) != 1 {
			t.Fatalf("worker %d got %d tiles, want 1", w, len(tiles))
		}
	}
}

func TestAssignZCoversAllTilesOnce(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(128, 128, 512)), IV(1, 1, 1))
	tl, _ := NewTiling(l.Patch(0), IV(16, 16, 8))
	assign := tl.AssignZ(64)
	seen := map[IVec]bool{}
	total := 0
	for _, tiles := range assign {
		for _, tile := range tiles {
			if seen[tile.Index] {
				t.Fatalf("tile %v assigned twice", tile.Index)
			}
			seen[tile.Index] = true
			total++
		}
	}
	if total != int(tl.Counts.Volume()) {
		t.Fatalf("assigned %d of %d tiles", total, int(tl.Counts.Volume()))
	}
}

// Property: AssignZ covers every tile exactly once for arbitrary worker
// counts and tile grids.
func TestPropertyAssignZPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := IV(8*(1+rng.Intn(4)), 8*(1+rng.Intn(4)), 8*(1+rng.Intn(16)))
		l, err := NewLayout(BoxFromSize(IV(0, 0, 0), size), IV(1, 1, 1))
		if err != nil {
			return false
		}
		tl, err := NewTiling(l.Patch(0), IV(8, 8, 8))
		if err != nil {
			return false
		}
		workers := 1 + rng.Intn(80)
		total := 0
		for _, tiles := range tl.AssignZ(workers) {
			total += len(tiles)
		}
		return total == int(tl.Counts.Volume())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignZCountsMatchAssignZ: the arithmetic per-worker tile counts the
// scheduler's timing-only path uses equal what AssignZ materialises, for
// random patch sizes, tile sizes and worker counts.
func TestAssignZCountsMatchAssignZ(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 500; i++ {
		dim := func(max int) int { return 1 + rng.Intn(max) }
		lo := IV(rng.Intn(9)-4, rng.Intn(9)-4, rng.Intn(9)-4)
		patch := &Patch{Box: BoxFromSize(lo, IV(dim(40), dim(40), dim(600)))}
		tiling, err := NewTiling(patch, IV(dim(20), dim(20), dim(12)))
		if err != nil {
			t.Fatal(err)
		}
		n := dim(70)
		counts, assign := tiling.AssignZCounts(n), tiling.AssignZ(n)
		total := 0
		for w := range assign {
			if counts[w] != len(assign[w]) {
				t.Fatalf("patch %v tiles %v, %d workers: worker %d count %d, AssignZ gave %d",
					patch.Box, tiling.TileSize, n, w, counts[w], len(assign[w]))
			}
			total += counts[w]
		}
		if total != int(tiling.Counts.Volume()) {
			t.Fatalf("counts sum to %d of %d tiles", total, int(tiling.Counts.Volume()))
		}
	}
}

// randomLayout draws a small layout and a ghost width its patches can hold.
func randomLayout(rng *rand.Rand) (*Layout, int) {
	counts := IV(1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3))
	cellsPer := IV(2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(5))
	lo := IV(rng.Intn(7)-3, rng.Intn(7)-3, rng.Intn(7)-3)
	l, err := NewLayout(BoxFromSize(lo, counts.Mul(cellsPer)), counts)
	if err != nil {
		panic(err)
	}
	return l, 1 + rng.Intn(min(cellsPer.X, cellsPer.Y, cellsPer.Z))
}

// freshNeighbours is Neighbours as it was before the per-level table: the
// distinct sources of a fresh decomposition, by a scan over all patch IDs.
func freshNeighbours(l *Layout, p *Patch, width int) []*Patch {
	seen := map[int]bool{}
	for _, gr := range l.ghostRegions(p, width) {
		if gr.Src != nil {
			seen[gr.Src.ID] = true
		}
	}
	var out []*Patch
	for id := 0; id < l.NumPatches(); id++ {
		if seen[id] {
			out = append(out, l.Patch(id))
		}
	}
	return out
}

// Property: what the table hands out equals a fresh computation, for every
// patch and every width asked in any order, and asking again returns the
// same shared slice rather than a second derivation.
func TestPropertyGhostTableMatchesFreshComputation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l, maxWidth := randomLayout(rng)
		for round := 0; round < 3; round++ {
			width := 1 + rng.Intn(maxWidth)
			for _, id := range rng.Perm(l.NumPatches()) {
				p := l.Patch(id)
				regions, nbrs := l.GhostRegions(p, width), l.Neighbours(p, width)
				if !reflect.DeepEqual(regions, l.ghostRegions(p, width)) ||
					!reflect.DeepEqual(nbrs, freshNeighbours(l, p, width)) {
					return false
				}
				if len(regions) != cap(regions) || len(nbrs) != cap(nbrs) {
					return false // an append would write into the shared table
				}
				if again := l.GhostRegions(p, width); len(regions) > 0 && &again[0] != &regions[0] {
					return false
				}
			}
		}
		return l.GhostRegions(l.Patch(0), 0) == nil && len(l.Neighbours(l.Patch(0), 0)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A patch of another layout has no row in this one's table. Asking for its
// ghost geometry is a caller bug, and it panics naming the patch, as
// Layout.Patch does for an ID out of range.
func TestGhostRegionsOfForeignPatch(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(8, 8, 8)), IV(2, 2, 2))
	other, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(8, 8, 8)), IV(1, 1, 2))
	p := other.Patch(1)
	for name, call := range map[string]func(){
		"GhostRegions": func() { l.GhostRegions(p, 1) },
		"Neighbours":   func() { l.Neighbours(p, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, p.String()) {
					t.Errorf("%s of a foreign patch: panic %q, want one naming %s", name, msg, p)
				}
			}()
			call()
		})
	}
}

// A Layout was immutable, so its methods could be called from any goroutine;
// the table must not take that away. First use of a width from many readers
// at once builds one table and hands all of them the same slices. Run under
// -race (make race).
func TestGhostTableConcurrentReaders(t *testing.T) {
	l, _ := NewLayout(BoxFromSize(IV(0, 0, 0), IV(32, 32, 16)), IV(8, 8, 2))
	const readers = 8
	firsts := make([][]*GhostRegion, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for width := 1; width <= 2; width++ {
				for _, p := range l.Patches() {
					regions := l.GhostRegions(p, width)
					for _, q := range l.Neighbours(p, width) {
						if len(l.GhostRegions(q, width)) == 0 {
							t.Errorf("neighbour %v of %v has no ghost regions", q, p)
						}
					}
					firsts[r] = append(firsts[r], &regions[0])
				}
			}
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		for i := range firsts[0] {
			if firsts[r][i] != firsts[0][i] {
				t.Fatalf("reader %d was handed a different slice than reader 0 (request %d)", r, i)
			}
		}
	}
}
