package taskgraph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sunuintah/internal/experiments"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/runner"
	. "sunuintah/internal/taskgraph"
)

// referenceCompile is the map-based compiler Compile replaced, moved to
// one ghost set per (label, patch): edges and sets keyed in maps, every
// Edge, Object, set and slice allocated on its own, deciding tasks found
// for every patch of the level up front, send edges derived patch-major
// from them, and readers' disagreements found cell by cell. It is the
// oracle the differential tests hold Compile to.
func referenceCompile(level *grid.Level, tasks []*Task, assign []int, rank int) (*Graph, error) {
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

	producer := map[*Label]*Task{}
	producerObjs := map[refProducerKey]*Object{}

	for _, t := range tasks {
		switch t.Kind {
		case KindOffload:
			for _, p := range g.LocalPatches {
				if !t.AppliesTo(p.ID) {
					continue
				}
				obj := &Object{Index: len(g.Objects), Task: t, Patch: p}
				g.Objects = append(g.Objects, obj)
				for _, d := range t.Requires {
					if d.DW != NewDW {
						continue
					}
					prod := producer[d.Label]
					if prod == nil {
						return nil, fmt.Errorf("taskgraph: task %q requires %q from the new warehouse but no earlier task computes it",
							t.Name, d.Label.Name())
					}
					up := producerObjs[refProducerKey{prod, p.ID}]
					if up == nil {
						return nil, fmt.Errorf("taskgraph: task %q requires %q from the new warehouse on patch %d but producer %q is excluded there by its patch predicate",
							t.Name, d.Label.Name(), p.ID, prod.Name)
					}
					obj.Upstream = append(obj.Upstream, up)
					up.Downstream = append(up.Downstream, obj)
				}
				for _, d := range t.Computes {
					producer[d.Label] = t
					producerObjs[refProducerKey{t, p.ID}] = obj
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
					if !t.AppliesTo(p.ID) || !prod.AppliesTo(p.ID) {
						continue
					}
					up := producerObjs[refProducerKey{prod, p.ID}]
					obj.Upstream = append(obj.Upstream, up)
					up.Downstream = append(up.Downstream, obj)
				}
			}
		}
	}

	// The deciding task of every (label, patch) of the level: the first, in
	// declaration order, to read the label there at the widest width.
	decider := map[refSetKey]*Task{}
	width := map[refSetKey]int{}
	for _, t := range tasks {
		for _, d := range t.Requires {
			if d.DW != OldDW || d.Ghost == 0 {
				continue
			}
			for _, p := range layout.Patches() {
				k := refSetKey{d.Label, p.ID}
				if t.AppliesTo(p.ID) && d.Ghost > width[k] {
					decider[k], width[k] = t, d.Ghost
				}
			}
		}
	}

	// Sets, local patch by local patch, in label order.
	for _, p := range g.LocalPatches {
		for _, l := range g.Labels {
			k := refSetKey{l, p.ID}
			if decider[k] == nil {
				continue
			}
			gs := &GhostSet{Label: l, Patch: p}
			for _, obj := range g.Objects {
				for _, d := range obj.Task.Requires {
					if obj.Patch == p && d.Label == l && d.DW == OldDW && d.Ghost > 0 && !refHasSet(obj, gs) {
						obj.Ghosts = append(obj.Ghosts, gs)
						gs.Readers = append(gs.Readers, obj)
					}
				}
			}
			if err := refFillSet(g, gs, decider[k], width[k], labelIdx); err != nil {
				return nil, err
			}
		}
	}

	for _, q := range g.LocalPatches {
		for _, p := range layout.Patches() {
			if assign[p.ID] == rank {
				continue
			}
			for _, l := range g.Labels {
				k := refSetKey{l, p.ID}
				dec := decider[k]
				if dec == nil || !dec.AppliesTo(q.ID) {
					continue
				}
				var e *Edge
				for _, gr := range layout.GhostRegions(p, width[k]) {
					if gr.Src != q {
						continue
					}
					if e == nil {
						e = &Edge{Label: l, LabelIdx: int32(labelIdx[l]), Src: q, Dst: p, SrcRank: rank, DstRank: assign[p.ID]}
						g.Sends = append(g.Sends, e)
					}
					refAddRegion(e, gr.Region)
				}
			}
		}
	}

	refSortEdges(g.Recvs, layout.NumPatches())
	refSortEdges(g.Sends, layout.NumPatches())
	refNumberChans(g.Recvs, func(e *Edge) int { return e.SrcRank })
	refNumberChans(g.Sends, func(e *Edge) int { return e.DstRank })
	return g, nil
}

type refProducerKey struct {
	task    *Task
	patchID int
}

type refEdgeKey struct {
	label    int
	src, dst int
}

type refSetKey struct {
	label   *Label
	patchID int
}

func refHasSet(obj *Object, gs *GhostSet) bool {
	for _, have := range obj.Ghosts {
		if have == gs {
			return true
		}
	}
	return false
}

func refAddRegion(e *Edge, r grid.Box) {
	e.Regions = append(e.Regions, r)
	e.Bytes += r.NumCells() * 8
}

// refOwner returns the patch owning cell c, or nil outside the domain.
func refOwner(layout *grid.Layout, c grid.IVec) *grid.Patch {
	if !layout.Domain.Contains(c) {
		return nil
	}
	return layout.PatchAt(c.Sub(layout.Domain.Lo).Div(layout.PatchSize))
}

// refFillSet checks gs's readers against its deciding task cell by cell,
// then derives its copies, fill and recv edges from the decider's view of
// the widest margin.
func refFillSet(g *Graph, gs *GhostSet, dec *Task, w int, labelIdx map[*Label]int) error {
	layout, p := g.Level.Layout, gs.Patch
	for _, r := range gs.Readers {
		if r.Task == dec {
			continue
		}
		rw := 0
		for _, d := range r.Task.Requires {
			if d.Label == gs.Label && d.DW == OldDW && d.Ghost > rw {
				rw = d.Ghost
			}
		}
		conflict := false
		p.Box.Grow(rw).ForEach(func(c grid.IVec) {
			if src := refOwner(layout, c); src != nil && src != p &&
				r.Task.AppliesTo(src.ID) != dec.AppliesTo(src.ID) {
				conflict = true
			}
		})
		if conflict {
			return fmt.Errorf("taskgraph: tasks %q and %q both read %q on patch %d with ghost cells but disagree on where some come from: only one runs on the neighbour that owns them",
				r.Task.Name, dec.Name, gs.Label.Name(), p.ID)
		}
	}
	copies := map[int]*CopyReq{}
	for _, gr := range layout.GhostRegions(p, w) {
		switch {
		case gr.Src == nil || !dec.AppliesTo(gr.Src.ID):
			gs.Fill = append(gs.Fill, gr.Region)
			gs.FillCells += gr.Region.NumCells()
		case g.Assign[gr.Src.ID] == g.Rank:
			cr := copies[gr.Src.ID]
			if cr == nil {
				cr = &CopyReq{Src: gr.Src}
				copies[gr.Src.ID] = cr
			}
			cr.Regions = append(cr.Regions, gr.Region)
			cr.Bytes += gr.Region.NumCells() * 8
		default:
			k := refEdgeKey{labelIdx[gs.Label], gr.Src.ID, p.ID}
			var e *Edge
			for _, have := range g.Recvs {
				if (refEdgeKey{int(have.LabelIdx), have.Src.ID, have.Dst.ID}) == k {
					e = have
				}
			}
			if e == nil {
				e = &Edge{Label: gs.Label, LabelIdx: int32(k.label), Src: gr.Src, Dst: p,
					SrcRank: g.Assign[gr.Src.ID], DstRank: g.Rank}
				g.Recvs = append(g.Recvs, e)
				for _, r := range gs.Readers {
					e.DstObjs = append(e.DstObjs, r)
					r.NumRecvs++
				}
			}
			refAddRegion(e, gr.Region)
		}
	}
	var srcIDs []int
	for id := range copies {
		srcIDs = append(srcIDs, id)
	}
	sort.Ints(srcIDs)
	for _, id := range srcIDs {
		gs.Copies = append(gs.Copies, *copies[id])
	}
	return nil
}

func refSortEdges(edges []*Edge, nPatches int) {
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].BaseTag(nPatches) < edges[j].BaseTag(nPatches)
	})
}

// refNumberChans numbers tag-sorted edges per peer rank, counting in a map.
func refNumberChans(edges []*Edge, peer func(*Edge) int) {
	next := map[int]int32{}
	for _, e := range edges {
		e.Chan = next[peer(e)]
		next[peer(e)]++
	}
}

// graphDiff returns the first difference between two graphs of the same
// inputs, field by field, with Object pointers compared by Index and Edge
// pointers by position; "" when they are equal.
func graphDiff(got, want *Graph) string {
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		return "Labels differ"
	}
	if !reflect.DeepEqual(got.LocalPatches, want.LocalPatches) {
		return "LocalPatches differ"
	}
	if len(got.Objects) != len(want.Objects) {
		return fmt.Sprintf("%d objects, want %d", len(got.Objects), len(want.Objects))
	}
	for i, o := range got.Objects {
		w := want.Objects[i]
		switch {
		case o.Index != i || w.Index != i:
			return fmt.Sprintf("object %d: Index %d, want %d", i, o.Index, w.Index)
		case o.Task != w.Task || o.Patch != w.Patch:
			return fmt.Sprintf("object %d: task or patch differs", i)
		case !reflect.DeepEqual(indices(o.Upstream), indices(w.Upstream)):
			return fmt.Sprintf("object %d: Upstream %v, want %v", i, indices(o.Upstream), indices(w.Upstream))
		case !reflect.DeepEqual(indices(o.Downstream), indices(w.Downstream)):
			return fmt.Sprintf("object %d: Downstream %v, want %v", i, indices(o.Downstream), indices(w.Downstream))
		case o.NumRecvs != w.NumRecvs:
			return fmt.Sprintf("object %d: NumRecvs %d, want %d", i, o.NumRecvs, w.NumRecvs)
		case len(o.Ghosts) != len(w.Ghosts):
			return fmt.Sprintf("object %d: %d ghost sets, want %d", i, len(o.Ghosts), len(w.Ghosts))
		case o.State != w.State || o.PendingDeps != w.PendingDeps:
			return fmt.Sprintf("object %d: scheduler state differs", i)
		}
		for k, gs := range o.Ghosts {
			if d := setDiff(gs, w.Ghosts[k]); d != "" {
				return fmt.Sprintf("object %d: ghost set %d: %s", i, k, d)
			}
			// One set per (label, patch): every reader holds this very set.
			for _, r := range gs.Readers {
				if !refHasSet(r, gs) {
					return fmt.Sprintf("object %d: ghost set %d: reader %d holds another set", i, k, r.Index)
				}
			}
		}
	}
	for _, side := range []struct {
		name      string
		got, want []*Edge
	}{{"recv", got.Recvs, want.Recvs}, {"send", got.Sends, want.Sends}} {
		if len(side.got) != len(side.want) {
			return fmt.Sprintf("%d %s edges, want %d", len(side.got), side.name, len(side.want))
		}
		for i, e := range side.got {
			w := side.want[i]
			if e.Label != w.Label || e.LabelIdx != w.LabelIdx || e.Src != w.Src || e.Dst != w.Dst ||
				e.SrcRank != w.SrcRank || e.DstRank != w.DstRank {
				return fmt.Sprintf("%s edge %d: endpoints %v->%v, want %v->%v", side.name, i, e.Src, e.Dst, w.Src, w.Dst)
			}
			if !reflect.DeepEqual(e.Regions, w.Regions) || e.Bytes != w.Bytes {
				return fmt.Sprintf("%s edge %d: regions %v (%d B), want %v (%d B)",
					side.name, i, e.Regions, e.Bytes, w.Regions, w.Bytes)
			}
			if e.Chan != w.Chan {
				return fmt.Sprintf("%s edge %d: Chan %d, want %d", side.name, i, e.Chan, w.Chan)
			}
			if !reflect.DeepEqual(indices(e.DstObjs), indices(w.DstObjs)) {
				return fmt.Sprintf("%s edge %d: DstObjs %v, want %v", side.name, i, indices(e.DstObjs), indices(w.DstObjs))
			}
		}
	}
	return ""
}

// setDiff returns the first difference between two ghost sets, readers
// compared by Index; "" when they are equal.
func setDiff(got, want *GhostSet) string {
	switch {
	case got.Label != want.Label || got.Patch != want.Patch:
		return fmt.Sprintf("%s on %v, want %s on %v", got.Label.Name(), got.Patch, want.Label.Name(), want.Patch)
	case !reflect.DeepEqual(got.Copies, want.Copies):
		return fmt.Sprintf("copies %v, want %v", got.Copies, want.Copies)
	case !reflect.DeepEqual(got.Fill, want.Fill) || got.FillCells != want.FillCells:
		return fmt.Sprintf("fill %v (%d cells), want %v (%d cells)", got.Fill, got.FillCells, want.Fill, want.FillCells)
	case !reflect.DeepEqual(indices(got.Readers), indices(want.Readers)):
		return fmt.Sprintf("readers %v, want %v", indices(got.Readers), indices(want.Readers))
	case got.Done != want.Done:
		return "done marks differ"
	}
	return ""
}

// indices maps objects to their Index; nil and empty map alike.
func indices(objs []*Object) []int {
	var out []int
	for _, o := range objs {
		out = append(out, o.Index)
	}
	return out
}

// compileBoth compiles every rank with Compile and referenceCompile and
// reports the first difference, errors included. A non-nil also holds each
// compiled graph to a further check, which returns "" or the violation.
func compileBoth(t *testing.T, name string, lv *grid.Level, tasks []*Task, assign []int, ranks int, also func(*Graph) string) bool {
	t.Helper()
	for r := 0; r < ranks; r++ {
		got, err := Compile(lv, tasks, assign, r)
		want, wantErr := referenceCompile(lv, tasks, assign, r)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s rank %d: error %v, reference %v", name, r, err, wantErr)
			return false
		}
		if err != nil {
			continue
		}
		if d := graphDiff(got, want); d != "" {
			t.Errorf("%s rank %d: %s", name, r, d)
			return false
		}
		if also == nil {
			continue
		}
		if d := also(got); d != "" {
			t.Errorf("%s rank %d: %s", name, r, d)
			return false
		}
	}
	return true
}

// Every rank of every case of the paper's 250-case matrix compiles to the
// graph the reference derives, and that graph writes every ghost cell once
// a step (ghostsWrittenOnce; TestGhostCellsWrittenOncePerStep holds the
// other problems to it). Each rank compiles once for both checks, and
// every pair of ranks numbers the streams between them alike
// (chanSymmetry).
func TestCompileMatchesReferenceOnPaperMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every rank of 250 cases twice")
	}
	cases := 0
	for _, prob := range experiments.Problems {
		for _, cgs := range experiments.CGCounts {
			if cgs < prob.MinCGs {
				continue
			}
			for _, v := range experiments.Variants {
				spec := experiments.SpecFor(prob, cgs, v, experiments.Options{Steps: experiments.Steps}, 0)
				lv, tasks, assign, ranks := specProblem(t, spec)
				var graphs []*Graph
				collect := func(g *Graph) string {
					graphs = append(graphs, g)
					return ghostsWrittenOnce(g)
				}
				if !compileBoth(t, spec.String(), lv, tasks, assign, ranks, collect) {
					return
				}
				if d := chanSymmetry(graphs); d != "" {
					t.Fatalf("%s: %s", spec, d)
				}
				cases++
			}
		}
	}
	if cases != 250 {
		t.Fatalf("matrix has %d cases, want 250", cases)
	}
}

// chanSymmetry returns the first send edge among graphs, one per rank,
// whose Chan differs from its recv edge's on the destination rank, or that
// has no recv edge; "" when the sender and the receiver of every rank pair
// number their streams alike, edge for edge.
func chanSymmetry(graphs []*Graph) string {
	n := graphs[0].Level.Layout.NumPatches()
	recvByTag := map[int]*Edge{}
	for _, g := range graphs {
		for _, e := range g.Recvs {
			recvByTag[e.BaseTag(n)] = e
		}
	}
	for _, g := range graphs {
		for _, e := range g.Sends {
			switch r := recvByTag[e.BaseTag(n)]; {
			case r == nil:
				return fmt.Sprintf("send %v->%v has no matching recv", e.Src, e.Dst)
			case e.Chan != r.Chan:
				return fmt.Sprintf("edge %v->%v is stream %d of rank %d to rank %d on the sender, %d on the receiver",
					e.Src, e.Dst, e.Chan, e.SrcRank, e.DstRank, r.Chan)
			}
		}
	}
	return ""
}

// specProblem returns the level, tasks, assignment and rank count spec
// runs with.
func specProblem(t *testing.T, spec runner.Spec) (*grid.Level, []*Task, []int, int) {
	t.Helper()
	cfg, prob, err := experiments.SpecConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := grid.NewUnitCubeLevel(cfg.Cells, cfg.PatchCounts)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := loadbalancer.AssignWithLayout(cfg.Balancer, lv.Layout, cfg.NumCGs)
	if err != nil {
		t.Fatal(err)
	}
	return lv, prob.Tasks, assign, cfg.NumCGs
}

// randomProblem is a random level, assignment and task set: 1–4 patches
// per axis of 1–4 cells, Block or SFC over 1–8 ranks, tasks requiring
// old-warehouse labels (some twice) at ghost widths 0–2 under random patch
// predicates, chained through new-warehouse labels, with an optional
// reduction at the end.
type randomProblem struct {
	level  *grid.Level
	tasks  []*Task
	assign []int
	ranks  int
}

func newRandomProblem(rng *rand.Rand) (randomProblem, error) {
	counts := grid.IV(1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4))
	// Patches as thin as one cell: a width-2 margin then spans two
	// patches, so one source owns several regions of it.
	size := grid.IV(1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4))
	lv, err := grid.NewUnitCubeLevel(counts.Mul(size), counts)
	if err != nil {
		return randomProblem{}, err
	}
	n := lv.Layout.NumPatches()
	ranks := 1 + rng.Intn(8)
	if ranks > n {
		ranks = n
	}
	strategy := loadbalancer.Block
	if rng.Intn(2) == 0 {
		strategy = loadbalancer.SFC
	}
	assign, err := loadbalancer.AssignWithLayout(strategy, lv.Layout, ranks)
	if err != nil {
		return randomProblem{}, err
	}
	olds := []*Label{NewLabel("u", nil), NewLabel("v", nil)}
	var news []*Label
	var tasks []*Task
	for i, nt := 0, 1+rng.Intn(4); i < nt; i++ {
		t := &Task{Name: fmt.Sprintf("t%d", i), Kind: KindOffload, Kernel: &Kernel{Weight: 1}}
		if rng.Intn(3) == 0 {
			// A pure, rank-independent predicate: every rank agrees.
			mod, rem := 2+rng.Intn(3), rng.Intn(2)
			t.Patches = func(id int) bool { return id%mod != rem }
		}
		for _, l := range olds {
			// Zero, one or two requirements of each label.
			for k := rng.Intn(3); k > 0; k-- {
				t.Requires = append(t.Requires, Dep{Label: l, DW: OldDW, Ghost: rng.Intn(3)})
			}
		}
		if len(news) > 0 && rng.Intn(2) == 0 {
			t.Requires = append(t.Requires, Dep{Label: news[rng.Intn(len(news))], DW: NewDW})
		}
		out := NewLabel(fmt.Sprintf("n%d", i), nil)
		news = append(news, out)
		t.Computes = []Dep{{Label: out, DW: NewDW}}
		tasks = append(tasks, t)
	}
	if rng.Intn(2) == 0 {
		tasks = append(tasks, &Task{Name: "reduce", Kind: KindReduction, Reduce: &ReduceSpec{},
			Requires: []Dep{{Label: news[rng.Intn(len(news))], DW: NewDW}}})
	}
	return randomProblem{level: lv, tasks: tasks, assign: assign, ranks: ranks}, nil
}

// Property: on random problems, Compile and the reference agree field for
// field on every rank, compile errors included: a chain through a
// predicate-excluded producer, and two readers of a label on one patch
// that disagree about where a ghost cell comes from.
func TestPropertyCompileMatchesReference(t *testing.T) {
	conflicts := 0
	f := func(seed int64) bool {
		p, err := newRandomProblem(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if conflicted(p) {
			conflicts++
		}
		return compileBoth(t, fmt.Sprintf("seed %d", seed), p.level, p.tasks, p.assign, p.ranks, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of 300 problems end in the conflicting-readers error", conflicts)
}

// conflicted reports whether some rank of p fails to compile because two
// readers of a label disagree about a ghost cell's source.
func conflicted(p randomProblem) bool {
	for r := 0; r < p.ranks; r++ {
		if _, err := Compile(p.level, p.tasks, p.assign, r); err != nil && strings.Contains(err.Error(), "disagree on where") {
			return true
		}
	}
	return false
}

// disjoint reports whether e's regions are pairwise disjoint and add up
// to its Bytes: each ghost cell crosses once, even when a label is
// required at two widths.
func disjoint(e *Edge) bool {
	var cells int64
	for i, r := range e.Regions {
		cells += r.NumCells()
		for _, o := range e.Regions[:i] {
			if !r.Intersect(o).Empty() {
				return false
			}
		}
	}
	return e.Bytes == 8*cells
}

// Property: every send edge has exactly one matching recv edge on the
// destination rank, with the same tag, ranks, stream number (Chan), byte
// count and regions in the same order — the functional unpack walks the
// sender's pack order — and no edge carries a ghost cell twice, widths
// mixed or not.
func TestCompileSendRecvSymmetry(t *testing.T) {
	sends, conflicts := 0, 0
	f := func(seed int64) bool {
		p, err := newRandomProblem(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if conflicted(p) {
			conflicts++
		}
		n := p.level.Layout.NumPatches()
		recvByTag := map[int]*Edge{}
		var graphs []*Graph
		for r := 0; r < p.ranks; r++ {
			g, err := Compile(p.level, p.tasks, p.assign, r)
			if err != nil {
				return true // a chain excluded by a predicate: no graph to check
			}
			graphs = append(graphs, g)
			for _, e := range g.Recvs {
				if recvByTag[e.BaseTag(n)] != nil {
					t.Errorf("seed %d: duplicate recv tag %d", seed, e.BaseTag(n))
					return false
				}
				recvByTag[e.BaseTag(n)] = e
				if !disjoint(e) {
					t.Errorf("seed %d: edge %v->%v carries a cell twice: %v", seed, e.Src, e.Dst, e.Regions)
					return false
				}
			}
		}
		matched := 0
		for _, g := range graphs {
			for _, e := range g.Sends {
				matched++
				r := recvByTag[e.BaseTag(n)]
				switch {
				case r == nil:
					t.Errorf("seed %d: send %v->%v has no matching recv", seed, e.Src, e.Dst)
				case e.Src != r.Src || e.Dst != r.Dst || e.SrcRank != r.SrcRank || e.DstRank != r.DstRank:
					t.Errorf("seed %d: edge endpoints differ: send %v->%v, recv %v->%v", seed, e.Src, e.Dst, r.Src, r.Dst)
				case e.Chan != r.Chan:
					t.Errorf("seed %d: edge %v->%v: send is stream %d, recv stream %d", seed, e.Src, e.Dst, e.Chan, r.Chan)
				case e.Bytes != r.Bytes || !reflect.DeepEqual(e.Regions, r.Regions):
					t.Errorf("seed %d: edge %v->%v: send %v (%d B), recv %v (%d B)", seed, e.Src, e.Dst, e.Regions, e.Bytes, r.Regions, r.Bytes)
				default:
					continue
				}
				return false
			}
		}
		if matched != len(recvByTag) {
			t.Errorf("seed %d: %d sends vs %d recvs", seed, matched, len(recvByTag))
			return false
		}
		sends += matched
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if sends == 0 {
		t.Fatal("no cross-rank edges in any random problem")
	}
	t.Logf("%d of 300 problems end in the conflicting-readers error", conflicts)
}
