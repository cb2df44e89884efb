// Command taskgraphviz compiles a rank's portion of the Burgers task graph
// and emits it as Graphviz DOT: task objects as nodes, intra-step
// dependencies and MPI edges as arrows. Useful for inspecting how the
// distributed graph decomposes across ranks.
//
// Usage:
//
//	taskgraphviz [-cells AxBxC] [-patches AxBxC] [-ranks N] [-rank R] > graph.dot
package main

import (
	"flag"
	"fmt"
	"os"

	"sunuintah/internal/burgers"
	"sunuintah/internal/experiments"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/taskgraph"
)

func main() {
	cellsFlag := flag.String("cells", "32x32x32", "global grid size")
	patchesFlag := flag.String("patches", "2x2x2", "patch layout")
	ranks := flag.Int("ranks", 2, "number of ranks")
	rank := flag.Int("rank", 0, "rank whose graph portion to dump")
	flag.Parse()

	cells, err := experiments.ParseIVec(*cellsFlag)
	if err != nil {
		fatal(err)
	}
	patches, err := experiments.ParseIVec(*patchesFlag)
	if err != nil {
		fatal(err)
	}
	level, err := grid.NewUnitCubeLevel(cells, patches)
	if err != nil {
		fatal(err)
	}
	assign, err := loadbalancer.Assign(loadbalancer.Block, level.Layout.NumPatches(), *ranks)
	if err != nil {
		fatal(err)
	}
	u := burgers.NewULabel()
	tasks := []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib, false)}
	g, err := taskgraph.Compile(level, tasks, assign, *rank)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("// task graph of rank %d/%d: %d objects, %d recv edges, %d send edges\n",
		*rank, *ranks, len(g.Objects), len(g.Recvs), len(g.Sends))
	fmt.Println("digraph taskgraph {")
	fmt.Println("  rankdir=LR;")
	fmt.Println("  node [shape=box, fontname=\"monospace\"];")
	for _, o := range g.Objects {
		label := o.Task.Name
		if o.Patch != nil {
			label = fmt.Sprintf("%s\\npatch %d %v", o.Task.Name, o.Patch.ID, o.Patch.Box.Size())
		}
		fmt.Printf("  obj%d [label=\"%s\"];\n", o.Index, label)
		for _, d := range o.Downstream {
			fmt.Printf("  obj%d -> obj%d;\n", o.Index, d.Index)
		}
	}
	for i, e := range g.Recvs {
		fmt.Printf("  recv%d [label=\"recv %s\\n%v <- rank %d\\n%d B\", shape=ellipse, color=blue];\n",
			i, e.Label.Name(), e.Dst.ID, e.SrcRank, e.Bytes)
		for _, o := range e.DstObjs {
			fmt.Printf("  recv%d -> obj%d [color=blue];\n", i, o.Index)
		}
	}
	for i, e := range g.Sends {
		fmt.Printf("  send%d [label=\"send %s\\n%v -> rank %d\\n%d B\", shape=ellipse, color=red];\n",
			i, e.Label.Name(), e.Src.ID, e.DstRank, e.Bytes)
	}
	fmt.Println("}")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taskgraphviz:", err)
	os.Exit(1)
}
