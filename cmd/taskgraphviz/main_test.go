package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestRankOutOfRange(t *testing.T) {
	for _, rank := range []string{"-1", "2"} {
		var out bytes.Buffer
		err := run(&out, []string{"-ranks", "2", "-rank", rank})
		if err == nil || !strings.Contains(err.Error(), "out of range [0,2)") {
			t.Errorf("-rank %s of 2: error %v, want one naming the range", rank, err)
		}
		if out.Len() != 0 {
			t.Errorf("-rank %s of 2 wrote %d bytes before failing", rank, out.Len())
		}
	}
}

// The header's counts describe the body that follows it.
func TestHeaderCountsMatchGraph(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	var rank, ranks, objs, recvs, sends int
	header, _, _ := strings.Cut(out.String(), "\n")
	if _, err := fmt.Sscanf(header, "// task graph of rank %d/%d: %d objects, %d recv edges, %d send edges",
		&rank, &ranks, &objs, &recvs, &sends); err != nil {
		t.Fatalf("header %q: %v", header, err)
	}
	if rank != 0 || ranks != 2 {
		t.Fatalf("default graph is rank %d/%d, want 0/2", rank, ranks)
	}
	for kind, want := range map[string]int{"obj": objs, "recv": recvs, "send": sends} {
		re := regexp.MustCompile(`(?m)^  ` + kind + `\d+ \[label=`)
		if got := len(re.FindAllString(out.String(), -1)); got != want {
			t.Errorf("%d %s nodes, header says %d", got, kind, want)
		}
	}
}

// Across all ranks' graphs every patch is computed exactly once.
func TestRanksCoverEveryPatchOnce(t *testing.T) {
	const ranks, patches = 4, 16
	owner := map[int]int{}
	re := regexp.MustCompile(`\\npatch (\d+) `)
	for r := 0; r < ranks; r++ {
		var out bytes.Buffer
		if err := run(&out, []string{"-patches", "2x2x4", "-ranks", strconv.Itoa(ranks), "-rank", strconv.Itoa(r)}); err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(out.String(), -1) {
			p, _ := strconv.Atoi(m[1])
			if prev, ok := owner[p]; ok {
				t.Fatalf("patch %d in the graphs of rank %d and rank %d", p, prev, r)
			}
			owner[p] = r
		}
	}
	for p := 0; p < patches; p++ {
		if _, ok := owner[p]; !ok {
			t.Errorf("patch %d in no rank's graph", p)
		}
	}
}
