package taskgraph

import (
	"fmt"
	"sort"

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

	// Persistent marks labels that survive the warehouse swap (required
	// from the old warehouse by some task); they must never be scrubbed.
	Persistent map[*Label]bool
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
	g := &Graph{Level: level, Tasks: tasks, Assign: assign, Rank: rank,
		Persistent: map[*Label]bool{}}
	for _, t := range tasks {
		for _, d := range t.Requires {
			if d.DW == OldDW {
				g.Persistent[d.Label] = true
			}
		}
	}

	// Canonical label table: first appearance across task declarations.
	labelIdx := map[*Label]int{}
	addLabel := func(l *Label) {
		if _, ok := labelIdx[l]; !ok {
			labelIdx[l] = len(g.Labels)
			g.Labels = append(g.Labels, l)
		}
	}
	for _, t := range tasks {
		for _, d := range t.Requires {
			addLabel(d.Label)
		}
		for _, d := range t.Computes {
			addLabel(d.Label)
		}
	}

	for _, p := range layout.Patches() {
		if assign[p.ID] == rank {
			g.LocalPatches = append(g.LocalPatches, p)
		}
	}

	// Producers of each (label, NewDW) per task order, for intra-step
	// chains.
	producer := map[*Label]*Task{}
	producerObjs := map[producerKey]*Object{}

	recvKey := map[edgeKey]*Edge{}

	for _, t := range tasks {
		switch t.Kind {
		case KindOffload, KindMPE:
			for _, p := range g.LocalPatches {
				if !t.AppliesTo(p.ID) {
					continue
				}
				obj := &Object{Index: len(g.Objects), Task: t, Patch: p}
				g.Objects = append(g.Objects, obj)
				for _, d := range t.Requires {
					switch {
					case d.DW == NewDW:
						prod := producer[d.Label]
						if prod == nil {
							return nil, fmt.Errorf("taskgraph: task %q requires %q from the new warehouse but no earlier task computes it",
								t.Name, d.Label.Name())
						}
						up := producerObjs[producerKey{prod, p.ID}]
						if up == nil {
							return nil, fmt.Errorf("taskgraph: task %q requires %q from the new warehouse on patch %d but producer %q is excluded there by its patch predicate",
								t.Name, d.Label.Name(), p.ID, prod.Name)
						}
						obj.Upstream = append(obj.Upstream, up)
						up.Downstream = append(up.Downstream, obj)
					case d.Ghost > 0:
						g.addGhostDeps(obj, d, recvKey, labelIdx)
					}
				}
				for _, d := range t.Computes {
					producer[d.Label] = t
					producerObjs[producerKey{t, p.ID}] = obj
				}
			}
		case KindReduction:
			obj := &Object{Index: len(g.Objects), Task: t}
			g.Objects = append(g.Objects, obj)
			d := t.Requires[0]
			if d.DW == NewDW {
				prod := producer[d.Label]
				if prod == nil {
					return nil, fmt.Errorf("taskgraph: reduction %q requires %q before it is computed",
						t.Name, d.Label.Name())
				}
				for _, p := range g.LocalPatches {
					// The reduction folds only the patches where both it
					// and the producer run.
					if !t.AppliesTo(p.ID) || !prod.AppliesTo(p.ID) {
						continue
					}
					up := producerObjs[producerKey{prod, p.ID}]
					obj.Upstream = append(obj.Upstream, up)
					up.Downstream = append(up.Downstream, obj)
				}
			}
		}
	}

	// Send edges: for every local patch Q and every task requirement with
	// ghosts, find remote patches P whose ghost margin includes data from
	// Q.
	sendKey := map[edgeKey]*Edge{}
	for _, t := range tasks {
		for _, d := range t.Requires {
			if d.DW != OldDW || d.Ghost == 0 {
				continue
			}
			for _, q := range g.LocalPatches {
				// Only patches the task runs on exchange its ghosts: an
				// excluded source patch never holds the label, and an
				// excluded destination fills from boundary conditions.
				if !t.AppliesTo(q.ID) {
					continue
				}
				for _, p := range layout.Neighbours(q, d.Ghost) {
					if assign[p.ID] == rank || !t.AppliesTo(p.ID) {
						continue
					}
					for _, gr := range layout.GhostRegions(p, d.Ghost) {
						if gr.Src == nil || gr.Src.ID != q.ID {
							continue
						}
						k := edgeKey{labelIdx[d.Label], q.ID, p.ID}
						e := sendKey[k]
						if e == nil {
							e = &Edge{Label: d.Label, LabelIdx: k.label,
								Src: q, Dst: p, SrcRank: rank, DstRank: assign[p.ID]}
							sendKey[k] = e
							g.Sends = append(g.Sends, e)
						}
						e.addRegion(gr.Region)
					}
				}
			}
		}
	}

	sortEdges(g.Recvs, layout.NumPatches())
	sortEdges(g.Sends, layout.NumPatches())
	return g, nil
}

type producerKey struct {
	task    *Task
	patchID int
}

type edgeKey struct {
	label    int
	src, dst int
}

func (e *Edge) addRegion(r grid.Box) {
	for _, have := range e.Regions {
		if have == r {
			return
		}
	}
	e.Regions = append(e.Regions, r)
	e.Cells += r.NumCells()
	e.Bytes += r.NumCells() * 8
}

// addGhostDeps attaches the ghost dependencies of one requires-with-ghost
// declaration to obj: recv edges for remote sources, local copies for
// same-rank sources, boundary fills for out-of-domain regions.
func (g *Graph) addGhostDeps(obj *Object, d Dep, recvKey map[edgeKey]*Edge, labelIdx map[*Label]int) {
	layout := g.Level.Layout
	copies := map[int]*CopyReq{}
	var bc *BCReq
	for _, gr := range layout.GhostRegions(obj.Patch, d.Ghost) {
		switch {
		case gr.Src == nil || !obj.Task.AppliesTo(gr.Src.ID):
			// Out of the domain, or sourced from a patch the task is
			// excluded from: the region is a physical (or physics-
			// interface) boundary, filled from the label's BC.
			if bc == nil {
				bc = &BCReq{Label: d.Label}
			}
			bc.Regions = append(bc.Regions, gr.Region)
			bc.Cells += gr.Region.NumCells()
		case g.Assign[gr.Src.ID] == g.Rank:
			cr := copies[gr.Src.ID]
			if cr == nil {
				cr = &CopyReq{Label: d.Label, Src: gr.Src}
				copies[gr.Src.ID] = cr
			}
			cr.Regions = append(cr.Regions, gr.Region)
			cr.Bytes += gr.Region.NumCells() * 8
		default:
			k := edgeKey{labelIdx[d.Label], gr.Src.ID, obj.Patch.ID}
			e := recvKey[k]
			if e == nil {
				e = &Edge{Label: d.Label, LabelIdx: k.label,
					Src: gr.Src, Dst: obj.Patch,
					SrcRank: g.Assign[gr.Src.ID], DstRank: g.Rank}
				recvKey[k] = e
				g.Recvs = append(g.Recvs, e)
			}
			e.addRegion(gr.Region)
			// The edge may already serve another object; attach once.
			attached := false
			for _, o := range e.DstObjs {
				if o == obj {
					attached = true
					break
				}
			}
			if !attached {
				e.DstObjs = append(e.DstObjs, obj)
				obj.NumRecvs++
			}
		}
	}
	var srcIDs []int
	for id := range copies {
		srcIDs = append(srcIDs, id)
	}
	sort.Ints(srcIDs)
	for _, id := range srcIDs {
		obj.LocalCopies = append(obj.LocalCopies, *copies[id])
	}
	if bc != nil {
		obj.BCFills = append(obj.BCFills, *bc)
	}
}

func sortEdges(edges []*Edge, nPatches int) {
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].BaseTag(nPatches) < edges[j].BaseTag(nPatches)
	})
}

// ResetForStep re-initialises every object's scheduling state for a new
// timestep.
func (g *Graph) ResetForStep() {
	for _, o := range g.Objects {
		o.ResetForStep()
	}
}
