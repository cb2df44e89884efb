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
	"io"
	"os"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/taskgraph"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "taskgraphviz:", err)
		os.Exit(1)
	}
}

// run parses args and writes the DOT graph of the chosen rank to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("taskgraphviz", flag.ExitOnError)
	cellsFlag := fs.String("cells", "32x32x32", "global grid size")
	patchesFlag := fs.String("patches", "2x2x2", "patch layout")
	ranks := fs.Int("ranks", 2, "number of ranks")
	rank := fs.Int("rank", 0, "rank whose graph portion to dump")
	fs.Parse(args)

	cells, err := experiments.ParseIVec(*cellsFlag)
	if err != nil {
		return err
	}
	patches, err := experiments.ParseIVec(*patchesFlag)
	if err != nil {
		return err
	}
	if *rank < 0 || *rank >= *ranks {
		return fmt.Errorf("rank %d out of range [0,%d)", *rank, *ranks)
	}
	// A timing-only simulation compiles every rank's graph exactly as a run
	// would; nothing is stepped.
	u := burgers.NewULabel()
	s, err := core.NewSimulation(core.Config{Cells: cells, PatchCounts: patches, NumCGs: *ranks},
		core.Problem{Tasks: []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib, false)}, Dt: 1})
	if err != nil {
		return err
	}
	g := s.Ranks[*rank].Graph()

	fmt.Fprintf(w, "// task graph of rank %d/%d: %d objects, %d recv edges, %d send edges\n",
		*rank, *ranks, len(g.Objects), len(g.Recvs), len(g.Sends))
	fmt.Fprintln(w, "digraph taskgraph {")
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	for _, o := range g.Objects {
		label := o.Task.Name
		if o.Patch != nil {
			label = fmt.Sprintf("%s\\npatch %d %v", o.Task.Name, o.Patch.ID, o.Patch.Box.Size())
		}
		fmt.Fprintf(w, "  obj%d [label=\"%s\"];\n", o.Index, label)
		for _, d := range o.Downstream {
			fmt.Fprintf(w, "  obj%d -> obj%d;\n", o.Index, d.Index)
		}
	}
	for i, e := range g.Recvs {
		fmt.Fprintf(w, "  recv%d [label=\"recv %s\\n%v <- rank %d\\n%d B\", shape=ellipse, color=blue];\n",
			i, e.Label.Name(), e.Dst.ID, e.SrcRank, e.Bytes)
		for _, o := range e.DstObjs {
			fmt.Fprintf(w, "  recv%d -> obj%d [color=blue];\n", i, o.Index)
		}
	}
	for i, e := range g.Sends {
		fmt.Fprintf(w, "  send%d [label=\"send %s\\n%v -> rank %d\\n%d B\", shape=ellipse, color=red];\n",
			i, e.Label.Name(), e.Src.ID, e.DstRank, e.Bytes)
	}
	fmt.Fprintln(w, "}")
	return nil
}
