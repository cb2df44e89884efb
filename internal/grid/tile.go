package grid

import "fmt"

// Tile is one TiDA-style sub-block of a patch, sized so a kernel's working
// set fits in a CPE's 64 KB local data memory (the paper uses 16x16x8).
type Tile struct {
	Index IVec // tile coordinates within the patch (0..per-axis count-1)
	Box   Box  // cells covered (clipped to the patch at high edges)
}

// Tiling subdivides a patch into tiles of a nominal size. Tiles at the high
// edge of the patch are clipped when the patch size is not divisible by the
// tile size.
type Tiling struct {
	Patch    *Patch
	TileSize IVec
	Counts   IVec // number of tiles per axis
}

// NewTiling builds the tiling of patch p with the given nominal tile size.
func NewTiling(p *Patch, tileSize IVec) (*Tiling, error) {
	if !tileSize.AllPositive() {
		return nil, fmt.Errorf("grid: tile size must be positive, got %v", tileSize)
	}
	s := p.Box.Size()
	counts := IV(ceilDiv(s.X, tileSize.X), ceilDiv(s.Y, tileSize.Y), ceilDiv(s.Z, tileSize.Z))
	return &Tiling{Patch: p, TileSize: tileSize, Counts: counts}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Tile returns the tile at tile coordinates idx.
func (t *Tiling) Tile(idx IVec) Tile {
	lo := t.Patch.Box.Lo.Add(idx.Mul(t.TileSize))
	hi := lo.Add(t.TileSize).Min(t.Patch.Box.Hi)
	return Tile{Index: idx, Box: Box{Lo: lo, Hi: hi}}
}

// AssignZ partitions the tiles among nWorkers CPEs by naturally splitting
// the tile index space along the z dimension, as the paper's CPE tile
// scheduler does: worker w receives every tile whose z slab index falls in
// the contiguous block [w*nz/n, (w+1)*nz/n). All tiles of one z slab go to
// the same worker; workers beyond the slab count receive nothing.
//
// When the patch has fewer z slabs than workers, trailing workers idle —
// exactly the situation that makes 16x16x512 the smallest sensible patch for
// 64 CPEs with 16x16x8 tiles (64 slabs, one per CPE).
func (t *Tiling) AssignZ(nWorkers int) [][]Tile {
	out := make([][]Tile, nWorkers)
	for w, n := range t.AssignZCounts(nWorkers) {
		if n == 0 {
			continue
		}
		tiles := make([]Tile, 0, n)
		zlo, zhi := t.slabs(w, nWorkers)
		for tz := zlo; tz < zhi; tz++ {
			for ty := 0; ty < t.Counts.Y; ty++ {
				for tx := 0; tx < t.Counts.X; tx++ {
					tiles = append(tiles, t.Tile(IV(tx, ty, tz)))
				}
			}
		}
		out[w] = tiles
	}
	return out
}

// slabs returns worker w's contiguous z-slab block [zlo, zhi).
func (t *Tiling) slabs(w, nWorkers int) (zlo, zhi int) {
	return w * t.Counts.Z / nWorkers, (w + 1) * t.Counts.Z / nWorkers
}

// AssignZCounts returns how many tiles AssignZ hands each worker —
// len(AssignZ(nWorkers)[w]) for every w — without materialising a Tile:
// all a timing-only offload of a uniform tiling needs.
func (t *Tiling) AssignZCounts(nWorkers int) []int {
	if nWorkers <= 0 {
		panic("grid: AssignZ needs at least one worker")
	}
	counts := make([]int, nWorkers)
	perSlab := t.Counts.X * t.Counts.Y
	for w := range counts {
		zlo, zhi := t.slabs(w, nWorkers)
		counts[w] = (zhi - zlo) * perSlab
	}
	return counts
}

// WorkingSetBytes returns the bytes of CPE local memory a kernel needs for
// one tile: the ghosted input region plus the interior output region, both
// in float64 (the paper's u and u_new working set; 41.3 KiB for a 16x16x8
// tile with one ghost layer).
func WorkingSetBytes(tile Tile, ghost int) int64 {
	in := tile.Box.Grow(ghost).NumCells()
	out := tile.Box.NumCells()
	return (in + out) * 8
}
