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
	Label   *Label
	Src     *grid.Patch
	Regions []grid.Box
	Bytes   int64
}

// BCReq is a physical-boundary ghost fill.
type BCReq struct {
	Label   *Label
	Regions []grid.Box
	Cells   int64
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

	// MPE-side work attached to this object.
	LocalCopies []CopyReq
	BCFills     []BCReq

	// State is managed by the scheduler at run time.
	State       ObjState
	PendingDeps int // recvs + upstream objects outstanding this step
}

// ResetForStep restores per-step scheduler state.
func (o *Object) ResetForStep() {
	o.State = StateWaiting
	o.PendingDeps = o.NumRecvs + len(o.Upstream)
	if o.PendingDeps == 0 {
		o.State = StateReady
	}
}

// Edge is a ghost-data message between two patches owned by different
// ranks. The sender packs Regions of SrcPatch's Label data (old warehouse)
// and the receiver unpacks them into the ghost margin of DstPatch's copy.
type Edge struct {
	Label    *Label
	LabelIdx int
	Src, Dst *grid.Patch
	SrcRank  int
	DstRank  int
	Regions  []grid.Box
	Cells    int64
	Bytes    int64
	// DstObjs are the receiving rank's objects unblocked by this edge.
	DstObjs []*Object
}

// BaseTag returns the step-invariant message tag for the edge, identical
// on the sending and receiving rank.
func (e *Edge) BaseTag(nPatches int) int {
	return (e.LabelIdx*nPatches+e.Dst.ID)*nPatches + e.Src.ID
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

	// LocalPatches are the patches assigned to this rank, in ID order.
	LocalPatches []*grid.Patch
}

// NumTags returns the size of the step-invariant tag space, used by the
// scheduler to fold the timestep into unique tags.
func (g *Graph) NumTags() int {
	n := g.Level.Layout.NumPatches()
	return len(g.Labels) * n * n
}

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
				}
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
					if !t.AppliesTo(p.ID) || !tasks[prod].AppliesTo(p.ID) {
						continue
					}
					up := objAt[prod*nLocal+i]
					obj.Upstream = append(obj.Upstream, up)
					up.Downstream = append(up.Downstream, obj)
				}
			}
		}
	}

	// Ghost dependencies patch by patch, so a local patch's recv and send
	// edges sit together and are found by a short scan. Tasks and their
	// requirements keep declaration order within a patch, so regions and
	// DstObjs come out in the order a task-major walk gives.
	for i, q := range g.LocalPatches {
		recv0, send0 := len(s.recvs), len(s.sends)
		for ti, t := range tasks {
			obj := objAt[ti*nLocal+i]
			if obj == nil {
				continue
			}
			copy0, bc0 := len(s.copies), len(s.bcs)
			for _, d := range t.Requires {
				if d.DW == OldDW && d.Ghost > 0 {
					g.addGhostDeps(&s, obj, d, recv0)
					g.addSends(&s, q, t, d, send0)
				}
			}
			obj.LocalCopies = carve(s.copies, copy0)
			obj.BCFills = carve(s.bcs, bc0)
		}
	}
	g.Recvs = sortedEdges(s.recvs, layout.NumPatches())
	g.Sends = sortedEdges(s.sends, layout.NumPatches())
	return g, nil
}

// slabs hold a graph's small values in a few arrays sized by a counting
// pass over the rank's own patches, and live as long as the graph. A
// pointer into a slab is taken only where no later append can move what it
// points to; a carved slice has its capacity clipped, so appending to it
// copies out instead of overwriting a neighbour.
type slabs struct {
	objects      []Object
	recvs, sends []Edge
	copies       []CopyReq
	bcs          []BCReq
	boxes        []grid.Box
	dstObjs      []*Object
}

func (g *Graph) newSlabs() slabs {
	layout := g.Level.Layout
	var nRegion, nEdge, nCopy, nFill int
	for _, t := range g.Tasks {
		for _, q := range g.LocalPatches {
			for _, d := range t.Requires {
				if d.DW != OldDW || d.Ghost == 0 || !t.AppliesTo(q.ID) {
					continue
				}
				nFill++
				nRegion += len(layout.GhostRegions(q, d.Ghost))
				for _, p := range layout.Neighbours(q, d.Ghost) {
					switch {
					case !t.AppliesTo(p.ID):
					case g.Assign[p.ID] == g.Rank:
						nCopy++
					default:
						nEdge++
					}
				}
			}
		}
	}
	// A task has an object on each local patch it runs on, or one in all.
	nObj := len(g.Tasks) * max(len(g.LocalPatches), 1)
	return slabs{
		objects: make([]Object, 0, nObj),
		recvs:   make([]Edge, 0, nEdge), sends: make([]Edge, 0, nEdge),
		copies: make([]CopyReq, 0, nCopy), bcs: make([]BCReq, 0, nFill),
		// A ghost region lands in at most one copy, recv or fill; a send
		// edge carries one region unless a width splits it.
		boxes:   make([]grid.Box, 0, nRegion+nEdge),
		dstObjs: make([]*Object, 0, nEdge),
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

// addRegion adds the cells of r the edge does not carry yet, as disjoint
// boxes: a label required at two widths asks for nested regions, and a
// ghost cell must cross the network once. Both sides add the same regions
// in the same order, so they derive the same pieces.
func (e *Edge) addRegion(s *slabs, r grid.Box) {
	pieces := []grid.Box{r}
	for _, have := range e.Regions {
		var rest []grid.Box
		for _, pc := range pieces {
			rest = grid.SubtractBox(rest, pc, have)
		}
		pieces = rest
	}
	for _, pc := range pieces {
		e.Regions = add(&s.boxes, e.Regions, pc)
		e.Cells += pc.NumCells()
		e.Bytes += pc.NumCells() * 8
	}
}

// addGhostDeps attaches the ghost dependencies of one requires-with-ghost
// declaration to obj: recv edges for remote sources (among the patch's
// edges from recv0 on), local copies for same-rank sources, boundary fills
// for out-of-domain regions.
func (g *Graph) addGhostDeps(s *slabs, obj *Object, d Dep, recv0 int) {
	regions := g.Level.Layout.GhostRegions(obj.Patch, d.Ghost)
	boundary := func(gr grid.GhostRegion) bool {
		// Out of the domain, or sourced from a patch the task is excluded
		// from: the region is a physical (or physics-interface) boundary,
		// filled from the label's BC.
		return gr.Src == nil || !obj.Task.AppliesTo(gr.Src.ID)
	}
	// Boundary regions first, so one fill's regions lie together.
	bc, box0 := BCReq{Label: d.Label}, len(s.boxes)
	for _, gr := range regions {
		if boundary(gr) {
			s.boxes = append(s.boxes, gr.Region)
			bc.Cells += gr.Region.NumCells()
		}
	}
	if bc.Regions = carve(s.boxes, box0); bc.Regions != nil {
		s.bcs = append(s.bcs, bc)
	}
	copy0, li := len(s.copies), g.labelIdx(d.Label)
	for _, gr := range regions {
		switch {
		case boundary(gr):
		case g.Assign[gr.Src.ID] == g.Rank:
			cr := find(&s.copies, copy0, CopyReq{Label: d.Label, Src: gr.Src},
				func(c *CopyReq) bool { return c.Src == gr.Src })
			cr.Regions = add(&s.boxes, cr.Regions, gr.Region)
			cr.Bytes += gr.Region.NumCells() * 8
		default:
			e := find(&s.recvs, recv0, Edge{Label: d.Label, LabelIdx: li, Src: gr.Src, Dst: obj.Patch,
				SrcRank: g.Assign[gr.Src.ID], DstRank: g.Rank},
				func(x *Edge) bool { return x.LabelIdx == li && x.Src == gr.Src })
			e.addRegion(s, gr.Region)
			// The edge may already serve another object; attach once.
			if !slices.Contains(e.DstObjs, obj) {
				e.DstObjs = add(&s.dstObjs, e.DstObjs, obj)
				obj.NumRecvs++
			}
		}
	}
	slices.SortFunc(s.copies[copy0:], func(a, b CopyReq) int { return a.Src.ID - b.Src.ID })
}

// addSends attaches the send edges of local patch q for one
// requires-with-ghost declaration of t: one per remote patch p, running t,
// whose ghost margin includes q's data (among q's edges from send0 on).
func (g *Graph) addSends(s *slabs, q *grid.Patch, t *Task, d Dep, send0 int) {
	layout, li := g.Level.Layout, g.labelIdx(d.Label)
	for _, p := range layout.Neighbours(q, d.Ghost) {
		// Only patches the task runs on exchange its ghosts: an excluded
		// source patch never holds the label, and an excluded destination
		// fills from boundary conditions.
		if g.Assign[p.ID] == g.Rank || !t.AppliesTo(p.ID) {
			continue
		}
		for _, gr := range layout.GhostRegions(p, d.Ghost) {
			if gr.Src == q {
				e := find(&s.sends, send0, Edge{Label: d.Label, LabelIdx: li, Src: q, Dst: p,
					SrcRank: g.Rank, DstRank: g.Assign[p.ID]},
					func(x *Edge) bool { return x.LabelIdx == li && x.Dst == p })
				e.addRegion(s, gr.Region)
			}
		}
	}
}

// sortedEdges returns pointers to the final edge slab in tag order.
func sortedEdges(edges []Edge, nPatches int) []*Edge {
	out := make([]*Edge, len(edges))
	for i := range edges {
		out[i] = &edges[i]
	}
	slices.SortFunc(out, func(a, b *Edge) int { return a.BaseTag(nPatches) - b.BaseTag(nPatches) })
	return out
}

// ResetForStep re-initialises every object's scheduling state for a new
// timestep.
func (g *Graph) ResetForStep() {
	for _, o := range g.Objects {
		o.ResetForStep()
	}
}
