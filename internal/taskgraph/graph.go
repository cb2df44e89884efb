package taskgraph

import (
	"fmt"
	"slices"

	"sunuintah/internal/grid"
)

// ObjState tracks a task object through the scheduler.
type ObjState int

// Task-object lifecycle states.
const (
	StateWaiting   ObjState = iota // dependencies outstanding
	StateReady                     // all inputs available, not yet started
	StatePrepared                  // MPE part done ahead of time, awaiting a CPE slot
	StateRunning                   // offloaded to the CPEs (or executing on the MPE)
	StateCompleted                 // done; downstream dependencies released
)

// CopyReq is a same-rank ghost dependency: regions of Src's data copied
// into a patch's ghost margin by the MPE.
type CopyReq struct {
	Src     *grid.Patch
	Regions []grid.Box
	Bytes   int64
}

// GhostSet produces an old-warehouse label's ghost margin on a local patch
// at the widest width its readers (the objects there reading it with ghost
// cells) require: same-rank copies by source ID, boundary-condition fill
// regions, and the recv edges into the patch, whose DstObjs are Readers.
// The patch holds one copy of the label, so the MPE runs the copies and
// the fill once a step, in the first reader it selects, and marks Done.
type GhostSet struct {
	Label     *Label
	Patch     *grid.Patch
	Copies    []CopyReq
	Fill      []grid.Box
	FillCells int64
	Readers   []*Object
	Done      bool
}

// Object is one task instantiated on one patch (Uintah's "task object"; a
// reduction object has Patch == nil and spans the rank's patches).
type Object struct {
	Index int // dense index within the rank's object list
	Task  *Task
	Patch *grid.Patch

	// Upstream/downstream intra-step dependencies (task chains).
	Upstream   []*Object
	Downstream []*Object

	// Remote ghost dependencies: number of recv edges that must complete
	// before this object is ready.
	NumRecvs int

	// Ghosts are the ghost sets of the old-warehouse labels the object
	// reads with ghost cells, in label order.
	Ghosts []*GhostSet

	// State is managed by the scheduler at run time.
	State       ObjState
	PendingDeps int // recvs + upstream objects outstanding this step
}

// Edge is a ghost-data message between two patches owned by different
// ranks. The sender packs Regions of SrcPatch's Label data (old warehouse)
// and the receiver unpacks them into the ghost margin of DstPatch's copy.
type Edge struct {
	Label    *Label
	LabelIdx int32
	// Chan numbers the edge among the edges from SrcRank to DstRank in
	// BaseTag order: its message stream between the two ranks, the same
	// number on both. It shares a word with LabelIdx: a wider Edge made
	// the compile slabs, and with them every simulation's set-up, grow.
	Chan     int32
	Src, Dst *grid.Patch
	SrcRank  int
	DstRank  int
	Regions  []grid.Box
	Bytes    int64
	// DstObjs are the receiving rank's objects unblocked by this edge.
	DstObjs []*Object
}

// BaseTag returns the step-invariant message tag for the edge, identical
// on the sending and receiving rank.
func (e *Edge) BaseTag(nPatches int) int {
	return (int(e.LabelIdx)*nPatches+e.Dst.ID)*nPatches + e.Src.ID
}

// Graph is one rank's compiled portion of the distributed task graph.
type Graph struct {
	Level  *grid.Level
	Tasks  []*Task
	Assign []int // patch ID -> owning rank
	Rank   int

	// Objects in deterministic scheduling priority order: task declaration
	// order, then patch ID.
	Objects []*Object
	// Recvs and Sends are this rank's communication edges.
	Recvs []*Edge
	Sends []*Edge
	// Labels is the canonical label table (identical ordering on every
	// rank); LabelIdx indexes into it.
	Labels []*Label
	// widths holds GhostWidth's answers, indexed like Labels.
	widths []int

	// LocalPatches are the patches assigned to this rank, in ID order.
	LocalPatches []*grid.Patch
}

// NumTags returns the size of the step-invariant tag space, used by the
// scheduler to fold the timestep into unique tags.
func (g *Graph) NumTags() int {
	n := g.Level.Layout.NumPatches()
	return len(g.Labels) * n * n
}

// GhostWidth returns l's allocation ghost width: the widest any task
// requires it at.
func (g *Graph) GhostWidth(l *Label) int { return g.widths[g.labelIdx(l)] }

// Compile builds rank's portion of the task graph for the given tasks on
// level, with patch p owned by rank assign[p].
func Compile(level *grid.Level, tasks []*Task, assign []int, rank int) (*Graph, error) {
	layout := level.Layout
	if len(assign) != layout.NumPatches() {
		return nil, fmt.Errorf("taskgraph: assignment covers %d patches, layout has %d",
			len(assign), layout.NumPatches())
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	g := &Graph{Level: level, Tasks: tasks, Assign: assign, Rank: rank}
	// Canonical label table: first appearance across task declarations.
	for _, t := range tasks {
		for _, deps := range [][]Dep{t.Requires, t.Computes} {
			for _, d := range deps {
				if g.labelIdx(d.Label) < 0 {
					g.Labels = append(g.Labels, d.Label)
					g.widths = append(g.widths, 0)
				}
				li := g.labelIdx(d.Label)
				g.widths[li] = max(g.widths[li], d.Ghost)
			}
		}
	}
	for _, p := range layout.Patches() {
		if assign[p.ID] == rank {
			g.LocalPatches = append(g.LocalPatches, p)
		}
	}
	nLocal := len(g.LocalPatches)
	s := g.newSlabs()
	g.Objects = make([]*Object, 0, cap(s.objects))

	// Objects in priority order, with their intra-step chains. objAt maps
	// (task, local patch) to the task's object there; producer maps a label
	// index to 1 + the index of the latest task computing it.
	objAt := make([]*Object, len(tasks)*nLocal)
	producer := make([]int, len(g.Labels))
	for ti, t := range tasks {
		switch t.Kind {
		case KindOffload:
			for i, p := range g.LocalPatches {
				if !t.AppliesTo(p.ID) {
					continue
				}
				obj := g.newObject(&s, t, p)
				objAt[ti*nLocal+i] = obj
				for _, d := range t.Requires {
					if d.DW != NewDW {
						continue
					}
					prod := producer[g.labelIdx(d.Label)] - 1
					if prod < 0 {
						return nil, fmt.Errorf("taskgraph: task %q requires %q from the new warehouse but no earlier task computes it",
							t.Name, d.Label.Name())
					}
					up := objAt[prod*nLocal+i]
					if up == nil {
						return nil, fmt.Errorf("taskgraph: task %q requires %q from the new warehouse on patch %d but producer %q is excluded there by its patch predicate",
							t.Name, d.Label.Name(), p.ID, tasks[prod].Name)
					}
					obj.Upstream = append(obj.Upstream, up)
					up.Downstream = append(up.Downstream, obj)
				}
				// A task that runs on none of this rank's patches produces
				// nothing here.
				for _, d := range t.Computes {
					producer[g.labelIdx(d.Label)] = ti + 1
				}
			}
		case KindReduction:
			obj := g.newObject(&s, t, nil)
			d := t.Requires[0]
			if d.DW == NewDW {
				prod := producer[g.labelIdx(d.Label)] - 1
				if prod < 0 {
					return nil, fmt.Errorf("taskgraph: reduction %q requires %q before it is computed",
						t.Name, d.Label.Name())
				}
				for i, p := range g.LocalPatches {
					// The reduction folds only the patches where both it
					// and the producer run.
					if up := objAt[prod*nLocal+i]; up != nil && t.AppliesTo(p.ID) {
						obj.Upstream = append(obj.Upstream, up)
						up.Downstream = append(up.Downstream, obj)
					}
				}
			}
		}
	}

	// Ghost sets patch by patch, in label order. The first widest reader
	// decides where each ghost cell comes from; a reader that would take a
	// cell of its own margin from the other source is an error, since the
	// patch's one copy of the label cannot hold both.
	for i, q := range g.LocalPatches {
		for li, l := range g.Labels {
			dec, w := g.widest(l, q)
			if dec == nil {
				continue
			}
			s.ghosts = append(s.ghosts, GhostSet{Label: l, Patch: q})
			gs := &s.ghosts[len(s.ghosts)-1]
			for ti := range tasks {
				obj := objAt[ti*nLocal+i]
				for _, d := range tasks[ti].Requires {
					if obj == nil || d.Label != l || d.DW != OldDW || d.Ghost == 0 {
						continue
					}
					for _, src := range layout.Neighbours(q, d.Ghost) {
						if obj.Task.AppliesTo(src.ID) != dec.AppliesTo(src.ID) {
							return nil, fmt.Errorf("taskgraph: tasks %q and %q both read %q on patch %d with ghost cells but disagree on where some come from: only one runs on the neighbour that owns them",
								obj.Task.Name, dec.Name, l.Name(), q.ID)
						}
					}
					if gs.Readers == nil || gs.Readers[len(gs.Readers)-1] != obj {
						obj.Ghosts = add(&s.sets, obj.Ghosts, gs)
						gs.Readers = add(&s.readers, gs.Readers, obj)
					}
				}
			}
			g.addGhostSet(&s, gs, dec, w, li)
			g.addSends(&s, q, l, li)
		}
	}
	g.Recvs = sortedEdges(s.recvs, layout.NumPatches(), false)
	g.Sends = sortedEdges(s.sends, layout.NumPatches(), true)
	return g, nil
}

// slabs hold a graph's small values in a few arrays sized by a counting
// pass over the rank's own patches, and live as long as the graph. A
// pointer into a slab is taken only where no later append can move what it
// points to; a carved slice has its capacity clipped, so appending to it
// copies out instead of overwriting a neighbour.
type slabs struct {
	objects      []Object
	ghosts       []GhostSet
	recvs, sends []Edge
	copies       []CopyReq
	boxes        []grid.Box
	sets         []*GhostSet
	readers      []*Object
}

func (g *Graph) newSlabs() slabs {
	layout := g.Level.Layout
	var nRegion, nEdge, nCopy, nRead int
	for _, t := range g.Tasks {
		for _, q := range g.LocalPatches {
			for _, d := range t.Requires {
				if d.DW != OldDW || d.Ghost == 0 || !t.AppliesTo(q.ID) {
					continue
				}
				nRead++
				nRegion += len(layout.GhostRegions(q, d.Ghost))
				for _, p := range layout.Neighbours(q, d.Ghost) {
					if g.Assign[p.ID] == g.Rank {
						nCopy++
					} else {
						nEdge++
					}
				}
			}
		}
	}
	// An object per task and local patch (or one in all); per requires-with-
	// ghost at most one set (objects point into it: it must not grow), reader
	// and set pointer; a ghost region in one copy, recv or fill, or a send.
	nObj := len(g.Tasks) * max(len(g.LocalPatches), 1)
	return slabs{
		objects: make([]Object, 0, nObj),
		ghosts:  make([]GhostSet, 0, nRead),
		recvs:   make([]Edge, 0, nEdge), sends: make([]Edge, 0, nEdge),
		copies:  make([]CopyReq, 0, nCopy),
		boxes:   make([]grid.Box, 0, nRegion+nEdge),
		sets:    make([]*GhostSet, 0, nRead),
		readers: make([]*Object, 0, nRead),
	}
}

func (g *Graph) newObject(s *slabs, t *Task, p *grid.Patch) *Object {
	s.objects = append(s.objects, Object{Index: len(g.Objects), Task: t, Patch: p})
	obj := &s.objects[len(s.objects)-1]
	g.Objects = append(g.Objects, obj)
	return obj
}

// carve returns slab[from:] capacity-clipped, or nil when it is empty.
func carve[T any](slab []T, from int) []T {
	if len(slab) == from {
		return nil
	}
	return slab[from:len(slab):len(slab)]
}

// add appends v to dst; an empty dst takes one carved slot of the slab.
func add[T any](slab *[]T, dst []T, v T) []T {
	if dst != nil {
		return append(dst, v)
	}
	*slab = append(*slab, v)
	return carve(*slab, len(*slab)-1)
}

// find returns the first element of slab[from:] that match accepts,
// appending v if there is none. The pointer is valid until the next append.
func find[T any](slab *[]T, from int, v T, match func(*T) bool) *T {
	for i := from; i < len(*slab); i++ {
		if match(&(*slab)[i]) {
			return &(*slab)[i]
		}
	}
	*slab = append(*slab, v)
	return &(*slab)[len(*slab)-1]
}

// labelIdx returns l's index in the label table, or -1. A graph has a
// handful of labels, so this is a scan.
func (g *Graph) labelIdx(l *Label) int {
	for i, have := range g.Labels {
		if have == l {
			return i
		}
	}
	return -1
}

// widest returns the first task to read l on patch p at the widest ghost
// width, and that width; nil and 0 if no task reads l there with ghost
// cells.
func (g *Graph) widest(l *Label, p *grid.Patch) (dec *Task, w int) {
	for _, t := range g.Tasks {
		for _, d := range t.Requires {
			if d.Label == l && d.DW == OldDW && d.Ghost > w && t.AppliesTo(p.ID) {
				dec, w = t, d.Ghost
			}
		}
	}
	return dec, w
}

// addGhostSet derives gs's copies, fill and recv edges at width w from
// dec, its widest reader: a region owned by a patch dec does not run on is a
// physical (or physics-interface) boundary, filled from the label's BC.
func (g *Graph) addGhostSet(s *slabs, gs *GhostSet, dec *Task, w, li int) {
	layout, q := g.Level.Layout, gs.Patch
	regions := layout.GhostRegions(q, w)
	boundary := func(gr grid.GhostRegion) bool {
		return gr.Src == nil || !dec.AppliesTo(gr.Src.ID)
	}
	// Boundary regions first, so the fill's regions lie together.
	box0 := len(s.boxes)
	for _, gr := range regions {
		if boundary(gr) {
			s.boxes = append(s.boxes, gr.Region)
			gs.FillCells += gr.Region.NumCells()
		}
	}
	gs.Fill = carve(s.boxes, box0)
	copy0, recv0 := len(s.copies), len(s.recvs)
	for _, gr := range regions {
		switch {
		case boundary(gr):
		case g.Assign[gr.Src.ID] == g.Rank:
			cr := find(&s.copies, copy0, CopyReq{Src: gr.Src},
				func(c *CopyReq) bool { return c.Src == gr.Src })
			cr.Regions = add(&s.boxes, cr.Regions, gr.Region)
			cr.Bytes += gr.Region.NumCells() * 8
		default:
			e := find(&s.recvs, recv0, Edge{Label: gs.Label, LabelIdx: int32(li), Src: gr.Src, Dst: q,
				SrcRank: g.Assign[gr.Src.ID], DstRank: g.Rank, DstObjs: gs.Readers},
				func(x *Edge) bool { return x.Src == gr.Src })
			e.Regions = add(&s.boxes, e.Regions, gr.Region)
			e.Bytes += gr.Region.NumCells() * 8
		}
	}
	for _, r := range gs.Readers {
		r.NumRecvs += len(s.recvs) - recv0
	}
	slices.SortFunc(s.copies[copy0:], func(a, b CopyReq) int { return a.Src.ID - b.Src.ID })
	gs.Copies = carve(s.copies, copy0)
}

// addSends attaches local patch q's send edges of label l: for each remote
// patch p near q, the regions of p's ghost set that q owns, when p's widest
// reader runs on q. That reader reads l on q too, so q has a set of l.
func (g *Graph) addSends(s *slabs, q *grid.Patch, l *Label, li int) {
	layout := g.Level.Layout
	for _, p := range layout.Neighbours(q, g.widths[li]) {
		dec, w := g.widest(l, p)
		if g.Assign[p.ID] == g.Rank || dec == nil || !dec.AppliesTo(q.ID) {
			continue
		}
		s.sends = append(s.sends, Edge{Label: l, LabelIdx: int32(li), Src: q, Dst: p,
			SrcRank: g.Rank, DstRank: g.Assign[p.ID]})
		e := &s.sends[len(s.sends)-1]
		for _, gr := range layout.GhostRegions(p, w) {
			if gr.Src == q {
				e.Regions = add(&s.boxes, e.Regions, gr.Region)
				e.Bytes += gr.Region.NumCells() * 8
			}
		}
		if e.Regions == nil { // q is beyond p's margin
			s.sends = s.sends[:len(s.sends)-1]
		}
	}
}

// sortedEdges returns pointers to the final edge slab in tag order, each
// edge numbered (Chan) among those with the same peer rank — the
// destination of a send, the source of a recv — in that order. The sender
// and the receiver sort the edges between them by the same tags, so they
// number them alike.
func sortedEdges(edges []Edge, nPatches int, sends bool) []*Edge {
	out := make([]*Edge, len(edges))
	for i := range edges {
		out[i] = &edges[i]
	}
	slices.SortFunc(out, func(a, b *Edge) int { return a.BaseTag(nPatches) - b.BaseTag(nPatches) })
	// A rank has a few dozen peers at most: count them in a list that
	// stays on the stack unless it outgrows its capacity.
	next := make([]struct{ peer, n int }, 0, 32)
edges:
	for _, e := range out {
		peer := e.SrcRank
		if sends {
			peer = e.DstRank
		}
		for i := range next {
			if next[i].peer == peer {
				e.Chan = int32(next[i].n)
				next[i].n++
				continue edges
			}
		}
		next = append(next, struct{ peer, n int }{peer, 1})
	}
	return out
}

// ResetForStep re-initialises every object's scheduling state, and its
// ghost sets' marks, for a new timestep.
func (g *Graph) ResetForStep() {
	for _, o := range g.Objects {
		for _, gs := range o.Ghosts {
			gs.Done = false
		}
		o.State = StateWaiting
		o.PendingDeps = o.NumRecvs + len(o.Upstream)
		if o.PendingDeps == 0 {
			o.State = StateReady
		}
	}
}
