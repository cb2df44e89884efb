package taskgraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
)

func level(t *testing.T, cells, counts grid.IVec) *grid.Level {
	t.Helper()
	lv, err := grid.NewUnitCubeLevel(cells, counts)
	if err != nil {
		t.Fatal(err)
	}
	return lv
}

func advanceTask(u *Label) *Task {
	return &Task{
		Name: "advance",
		Kind: KindOffload,
		Requires: []Dep{
			{Label: u, DW: OldDW, Ghost: 1},
		},
		Computes: []Dep{
			{Label: u, DW: NewDW},
		},
		Kernel: &Kernel{FlopsPerCell: 311, ExpFlopsPerCell: 215, Weight: 1},
	}
}

func TestValidateRejectsBadTasks(t *testing.T) {
	u := NewLabel("u", nil)
	cases := []*Task{
		{Name: "no-kernel", Kind: KindOffload, Computes: []Dep{{Label: u, DW: NewDW}}},
		{Name: "no-computes", Kind: KindOffload, Kernel: &Kernel{}},
		{Name: "old-computes", Kind: KindOffload, Kernel: &Kernel{},
			Computes: []Dep{{Label: u, DW: OldDW}}},
		{Name: "ghost-computes", Kind: KindOffload, Kernel: &Kernel{},
			Computes: []Dep{{Label: u, DW: NewDW, Ghost: 1}}},
		{Name: "new-ghost-requires", Kind: KindOffload, Kernel: &Kernel{},
			Requires: []Dep{{Label: u, DW: NewDW, Ghost: 1}},
			Computes: []Dep{{Label: u, DW: NewDW}}},
		{Name: "neg-ghost", Kind: KindOffload, Kernel: &Kernel{},
			Requires: []Dep{{Label: u, DW: OldDW, Ghost: -1}},
			Computes: []Dep{{Label: u, DW: NewDW}}},
		{Name: "in-place", Kind: KindOffload, Kernel: &Kernel{},
			Requires: []Dep{{Label: u, DW: NewDW}},
			Computes: []Dep{{Label: u, DW: NewDW}}},
		{Name: "bad-reduce", Kind: KindReduction, Reduce: &ReduceSpec{},
			Requires: []Dep{{Label: u, DW: NewDW}, {Label: u, DW: OldDW}}},
		{Name: "ghost-reduce", Kind: KindReduction, Reduce: &ReduceSpec{},
			Requires: []Dep{{Label: u, DW: OldDW, Ghost: 1}}},
		{Name: "bad-kind", Kind: Kind(42)},
	}
	for _, task := range cases {
		if err := task.Validate(); err == nil {
			t.Errorf("task %q should fail validation", task.Name)
		}
	}
}

func TestCompileSingleRankHasNoMessages(t *testing.T) {
	lv := level(t, grid.IV(16, 16, 16), grid.IV(2, 2, 2))
	u := NewLabel("u", nil)
	assign := make([]int, 8) // all on rank 0
	g, err := Compile(lv, []*Task{advanceTask(u)}, assign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Objects) != 8 {
		t.Fatalf("objects = %d, want 8", len(g.Objects))
	}
	if len(g.Recvs) != 0 || len(g.Sends) != 0 {
		t.Fatalf("single rank should have no edges: %d recvs, %d sends", len(g.Recvs), len(g.Sends))
	}
	for _, o := range g.Objects {
		if o.NumRecvs != 0 {
			t.Errorf("object %v has %d recvs", o.Patch, o.NumRecvs)
		}
		if len(o.Ghosts) != 1 {
			t.Fatalf("object on %v has %d ghost sets, want 1", o.Patch, len(o.Ghosts))
		}
		// Every patch of a 2x2x2 layout touches 7 local neighbours.
		if gs := o.Ghosts[0]; len(gs.Copies) != 7 {
			t.Errorf("object on %v has %d local copies, want 7", o.Patch, len(gs.Copies))
		}
		// Every patch touches the physical boundary.
		if o.Ghosts[0].FillCells == 0 {
			t.Errorf("object on %v has no BC fill", o.Patch)
		}
	}
}

// For each ghost set, local copy cells + recv cells + BC cells must equal
// the full ghost margin. Two tasks reading the label at the same width
// share one set on each patch, and both wait on each of its recv edges.
func TestCompileGhostAccountingExact(t *testing.T) {
	lv := level(t, grid.IV(16, 16, 16), grid.IV(2, 2, 2))
	u := NewLabel("u", nil)
	second := &Task{Name: "second", Kind: KindOffload, Kernel: &Kernel{Weight: 1},
		Requires: []Dep{{Label: u, DW: OldDW, Ghost: 1}},
		Computes: []Dep{{Label: NewLabel("v", nil), DW: NewDW}}}
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for _, tasks := range [][]*Task{{advanceTask(u)}, {advanceTask(u), second}} {
		for rank := 0; rank < 2; rank++ {
			g, err := Compile(lv, tasks, assign, rank)
			if err != nil {
				t.Fatal(err)
			}
			recvCells := map[int]int64{} // patch ID -> cells arriving
			for _, e := range g.Recvs {
				recvCells[e.Dst.ID] += e.Bytes / 8
				if len(e.DstObjs) != len(tasks) {
					t.Fatalf("%d tasks, rank %d: edge %v->%v releases %d objects", len(tasks), rank, e.Src, e.Dst, len(e.DstObjs))
				}
				for i, o := range e.DstObjs {
					if o.Task != tasks[i] || o.Patch != e.Dst {
						t.Errorf("%d tasks, rank %d: edge %v->%v releases %s on %v", len(tasks), rank, e.Src, e.Dst, o.Task.Name, o.Patch)
					}
				}
			}
			sets := map[*grid.Patch]*GhostSet{}
			for _, o := range g.Objects {
				if len(o.Ghosts) != 1 {
					t.Fatalf("%d tasks, rank %d: object on %v has %d ghost sets, want 1", len(tasks), rank, o.Patch, len(o.Ghosts))
				}
				gs := o.Ghosts[0]
				if have := sets[o.Patch]; have != nil {
					if have != gs {
						t.Errorf("%d tasks, rank %d: two sets of u on %v", len(tasks), rank, o.Patch)
					}
					continue
				}
				sets[o.Patch] = gs
				if gs.Label != u || gs.Patch != o.Patch || len(gs.Readers) != len(tasks) {
					t.Errorf("%d tasks, rank %d: set on %v: label %s, patch %v, %d readers",
						len(tasks), rank, o.Patch, gs.Label.Name(), gs.Patch, len(gs.Readers))
				}
				cells := gs.FillCells + recvCells[o.Patch.ID]
				for _, cr := range gs.Copies {
					for _, r := range cr.Regions {
						cells += r.NumCells()
					}
				}
				want := o.Patch.Box.Grow(1).NumCells() - o.Patch.Box.NumCells()
				if cells != want {
					t.Errorf("%d tasks, rank %d patch %v: ghost cells %d, want %d", len(tasks), rank, o.Patch, cells, want)
				}
			}
		}
	}
}

// Two readers of one label on one patch that disagree about where a ghost
// cell comes from — one runs on the neighbour owning it, the other fills
// it from the boundary condition — cannot share the patch's one copy of
// the label: Compile names the label, the patch and both tasks.
func TestCompileRejectsReadersDisagreeingOnGhostSource(t *testing.T) {
	lv := level(t, grid.IV(16, 8, 8), grid.IV(2, 1, 1))
	u := NewLabel("u", nil)
	everywhere := &Task{Name: "everywhere", Kind: KindOffload, Kernel: &Kernel{},
		Requires: []Dep{{Label: u, DW: OldDW, Ghost: 1}},
		Computes: []Dep{{Label: NewLabel("a", nil), DW: NewDW}}}
	leftOnly := &Task{Name: "leftOnly", Kind: KindOffload, Kernel: &Kernel{},
		Patches:  func(id int) bool { return id == 0 },
		Requires: []Dep{{Label: u, DW: OldDW, Ghost: 1}},
		Computes: []Dep{{Label: NewLabel("b", nil), DW: NewDW}}}
	_, err := Compile(lv, []*Task{everywhere, leftOnly}, []int{0, 1}, 0)
	if err == nil {
		t.Fatal("readers disagreeing on a ghost source compiled")
	}
	for _, want := range []string{`"everywhere"`, `"leftOnly"`, `"u"`, "patch 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	// Rank 1 holds only patch 1, where leftOnly does not run.
	if _, err := Compile(lv, []*Task{everywhere, leftOnly}, []int{0, 1}, 1); err != nil {
		t.Fatalf("rank 1: %v", err)
	}
}

// A label required at two ghost widths asks each neighbour for nested
// regions. An edge must carry their union once: with one patch per rank on
// a 2x2x2 layout, a face edge carried 64+128 cells for a 128-cell union and
// a corner edge 1+8 for 8, and the sender packed, sent and the receiver
// unpacked every duplicate.
func TestEdgeCarriesEachGhostCellOnce(t *testing.T) {
	lv := level(t, grid.IV(16, 16, 16), grid.IV(2, 2, 2))
	u := NewLabel("u", nil)
	var tasks []*Task
	for _, w := range []int{1, 2} {
		tasks = append(tasks, &Task{Name: fmt.Sprintf("width%d", w), Kind: KindOffload, Kernel: &Kernel{},
			Requires: []Dep{{Label: u, DW: OldDW, Ghost: w}},
			Computes: []Dep{{Label: NewLabel(fmt.Sprintf("out%d", w), nil), DW: NewDW}}})
	}
	assign := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for rank := range assign {
		g, err := Compile(lv, tasks, assign, rank)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range append(g.Recvs, g.Sends...) {
			union, carried := map[grid.IVec]bool{}, map[grid.IVec]bool{}
			for _, w := range []int{1, 2} {
				for _, gr := range lv.Layout.GhostRegions(e.Dst, w) {
					if gr.Src == e.Src {
						gr.Region.ForEach(func(c grid.IVec) { union[c] = true })
					}
				}
			}
			var cells int64
			for _, r := range e.Regions {
				cells += r.NumCells()
				r.ForEach(func(c grid.IVec) { carried[c] = true })
			}
			if cells != int64(len(union)) || e.Bytes != 8*cells || !reflect.DeepEqual(carried, union) {
				t.Errorf("rank %d edge %v->%v: %d cells (%d B) in %v, union of the widths is %d cells",
					rank, e.Src, e.Dst, cells, e.Bytes, e.Regions, len(union))
			}
		}
	}
}

// TestCompileAllocs bounds Compile's allocations over all 128 ranks of the
// paper's 8x8x2 level (one patch per rank, one Burgers-shaped task, ghost
// table warm). Edges, objects, copies, fills, one-region region lists and
// one-object DstObjs come from per-graph slabs sized by a counting pass.
// When each of those was its own allocation and edges were found through
// maps, the 128 compiles allocated 13 769 times; measured 2 048 (16 a
// rank), and the bound is that plus 10%.
func TestCompileAllocs(t *testing.T) {
	lv := level(t, grid.IV(128, 128, 1024), grid.IV(8, 8, 2))
	tasks := []*Task{advanceTask(NewLabel("u", nil))}
	assign := make([]int, lv.Layout.NumPatches())
	for i := range assign {
		assign[i] = i
	}
	allocs := testing.AllocsPerRun(3, func() {
		for rank := range assign {
			if _, err := Compile(lv, tasks, assign, rank); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 2250 {
		t.Fatalf("%.0f allocations compiling 128 ranks, want <= 2250", allocs)
	}
	t.Logf("%.0f allocations compiling 128 ranks", allocs)
}

func TestCompileTaskChain(t *testing.T) {
	lv := level(t, grid.IV(8, 8, 8), grid.IV(1, 1, 1))
	u := NewLabel("u", nil)
	du := NewLabel("du", nil)
	t1 := &Task{
		Name: "derivs", Kind: KindOffload,
		Requires: []Dep{{Label: u, DW: OldDW, Ghost: 1}},
		Computes: []Dep{{Label: du, DW: NewDW}},
		Kernel:   &Kernel{Weight: 1},
	}
	t2 := &Task{
		Name: "update", Kind: KindOffload,
		Requires: []Dep{{Label: u, DW: OldDW}, {Label: du, DW: NewDW}},
		Computes: []Dep{{Label: u, DW: NewDW}},
		Kernel:   &Kernel{Weight: 0.2},
	}
	g, err := Compile(lv, []*Task{t1, t2}, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Objects) != 2 {
		t.Fatalf("objects = %d", len(g.Objects))
	}
	first, second := g.Objects[0], g.Objects[1]
	if first.Task != t1 || second.Task != t2 {
		t.Fatal("object order should follow task declaration order")
	}
	if len(second.Upstream) != 1 || second.Upstream[0] != first {
		t.Fatal("update must depend on derivs")
	}
	if len(first.Downstream) != 1 || first.Downstream[0] != second {
		t.Fatal("derivs must release update")
	}
	g.ResetForStep()
	if first.State != StateReady {
		t.Error("derivs should start ready")
	}
	if second.State != StateWaiting || second.PendingDeps != 1 {
		t.Errorf("update state = %v deps = %d", second.State, second.PendingDeps)
	}
}

func TestCompileMissingProducerFails(t *testing.T) {
	lv := level(t, grid.IV(8, 8, 8), grid.IV(1, 1, 1))
	u := NewLabel("u", nil)
	ghostTask := &Task{
		Name: "bad", Kind: KindOffload,
		Requires: []Dep{{Label: u, DW: NewDW}},
		Computes: []Dep{{Label: NewLabel("v", nil), DW: NewDW}},
		Kernel:   &Kernel{},
	}
	if _, err := Compile(lv, []*Task{ghostTask}, []int{0}, 0); err == nil {
		t.Fatal("missing producer should fail compilation")
	}
}

// Kernels run on views of the warehouse fields, tile by tile and
// concurrently: a task updating a new-warehouse variable in place would
// read cells its own tiles are overwriting. Compile must refuse it, even
// when an earlier task produces the variable.
func TestCompileRejectsInPlaceUpdate(t *testing.T) {
	lv := level(t, grid.IV(16, 16, 16), grid.IV(2, 1, 1))
	u, v := NewLabel("u", nil), NewLabel("v", nil)
	produce := &Task{Name: "produce", Kind: KindOffload, Kernel: &Kernel{},
		Requires: []Dep{{Label: u, DW: OldDW, Ghost: 1}},
		Computes: []Dep{{Label: v, DW: NewDW}, {Label: u, DW: NewDW}}}
	inPlace := &Task{Name: "relax", Kind: KindOffload, Kernel: &Kernel{},
		Requires: []Dep{{Label: u, DW: OldDW}, {Label: v, DW: NewDW}},
		Computes: []Dep{{Label: v, DW: NewDW}}}
	_, err := Compile(lv, []*Task{produce, inPlace}, []int{0, 0}, 0)
	if err == nil {
		t.Fatal("in-place update of a new-warehouse variable compiled")
	}
	for _, want := range []string{`"relax"`, `"v"`, "in-place"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	// Reading the old copy while computing the new one is the normal case.
	if _, err := Compile(lv, []*Task{advanceTask(u)}, []int{0, 0}, 0); err != nil {
		t.Fatalf("old-to-new update rejected: %v", err)
	}
}

func TestCompileReductionDependsOnAllLocalPatches(t *testing.T) {
	lv := level(t, grid.IV(8, 8, 16), grid.IV(1, 1, 4))
	u := NewLabel("u", nil)
	red := &Task{
		Name: "maxU", Kind: KindReduction,
		Requires: []Dep{{Label: u, DW: NewDW}},
		Reduce:   &ReduceSpec{},
	}
	assign := []int{0, 0, 1, 1}
	g, err := Compile(lv, []*Task{advanceTask(u), red}, assign, 0)
	if err != nil {
		t.Fatal(err)
	}
	var redObj *Object
	for _, o := range g.Objects {
		if o.Task == red {
			redObj = o
		}
	}
	if redObj == nil {
		t.Fatal("no reduction object")
	}
	if redObj.Patch != nil {
		t.Error("reduction object should be rank-level")
	}
	if len(redObj.Upstream) != 2 {
		t.Fatalf("reduction upstream = %d, want 2 local patches", len(redObj.Upstream))
	}
}

func TestPaperConfigurationEdgeCounts(t *testing.T) {
	// 8x8x2 layout of 128 patches over 128 ranks: every patch's ghost
	// dependencies are remote.
	lv := level(t, grid.IV(128, 128, 1024), grid.IV(8, 8, 2))
	u := NewLabel("u", nil)
	assign := make([]int, 128)
	for i := range assign {
		assign[i] = i
	}
	g, err := Compile(lv, []*Task{advanceTask(u)}, assign, 37) // interior-ish rank
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Objects) != 1 {
		t.Fatalf("objects = %d", len(g.Objects))
	}
	o := g.Objects[0]
	nbrs := lv.Layout.Neighbours(o.Patch, 1)
	if o.NumRecvs != len(nbrs) {
		t.Errorf("recvs = %d, want %d (all neighbours remote)", o.NumRecvs, len(nbrs))
	}
	if len(o.Ghosts[0].Copies) != 0 {
		t.Errorf("local copies = %d, want 0", len(o.Ghosts[0].Copies))
	}
	if len(g.Sends) != len(nbrs) {
		t.Errorf("sends = %d, want %d", len(g.Sends), len(nbrs))
	}
}

func TestResetForStepRestoresState(t *testing.T) {
	lv := level(t, grid.IV(8, 8, 8), grid.IV(2, 1, 1))
	u := NewLabel("u", nil)
	g, err := Compile(lv, []*Task{advanceTask(u)}, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.ResetForStep()
	o := g.Objects[0]
	if o.State != StateWaiting || o.PendingDeps != o.NumRecvs {
		t.Fatalf("state = %v deps = %d", o.State, o.PendingDeps)
	}
	o.State = StateCompleted
	o.PendingDeps = -5
	g.ResetForStep()
	if o.State != StateWaiting || o.PendingDeps != o.NumRecvs {
		t.Fatal("reset did not restore state")
	}
}

func TestTagUniquenessAcrossEdges(t *testing.T) {
	lv := level(t, grid.IV(16, 16, 32), grid.IV(2, 2, 4))
	u := NewLabel("u", nil)
	assign, _ := loadbalancer.Assign(loadbalancer.Block, 16, 8)
	n := lv.Layout.NumPatches()
	seen := map[int]bool{}
	for r := 0; r < 8; r++ {
		g, err := Compile(lv, []*Task{advanceTask(u)}, assign, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Recvs {
			tag := e.BaseTag(n)
			if seen[tag] {
				t.Fatalf("tag %d reused", tag)
			}
			seen[tag] = true
			if tag < 0 || tag >= g.NumTags() {
				t.Fatalf("tag %d outside [0,%d)", tag, g.NumTags())
			}
		}
	}
}

func TestTotalBytesSymmetric(t *testing.T) {
	lv := level(t, grid.IV(16, 16, 32), grid.IV(2, 2, 4))
	u := NewLabel("u", nil)
	assign, _ := loadbalancer.Assign(loadbalancer.Block, 16, 4)
	var sent, recvd int64
	for r := 0; r < 4; r++ {
		g, err := Compile(lv, []*Task{advanceTask(u)}, assign, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Sends {
			sent += e.Bytes
		}
		for _, e := range g.Recvs {
			recvd += e.Bytes
		}
	}
	if sent != recvd || sent == 0 {
		t.Fatalf("sent %d, received %d", sent, recvd)
	}
}
