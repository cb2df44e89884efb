package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"sunuintah/internal/core"
	"sunuintah/internal/faults"
	"sunuintah/internal/grid"
	"sunuintah/internal/runner"
	"sunuintah/internal/taskgraph"
)

// functionalGolden is the functional data path's bit-identity table,
// recorded at the commit before tiles became windows onto the warehouse
// fields (PR 13's parent, staged pooled copies): the SHA-256 of the
// gathered solution's float bits, the simulated wall time's float bits and
// the hardware counters. Host-side changes to staging, ghost copies and
// boundary fill must reproduce every entry at every worker count.
var functionalGolden = []struct {
	name     string
	spec     runner.Spec
	fieldSHA string
	wallBits uint64
	counters string
}{
	{
		name:     "acc_simd.async uniform tiles",
		spec:     runner.Spec{Cells: "32x32x32", Layout: "2x2x2", CGs: 4, Variant: "acc_simd.async", Steps: 3, Functional: true},
		fieldSHA: "07e7083cc12f47acae540c07dee4ca4784a574aa2a286a827d00184614cb527d",
		wallBits: 0x3faa6f1c21b4bc6a,
		counters: "{Flops:23494656 ExpFlops:15335424 MPEFlops:4874376 CellsComputed:98304 DMABytes:2030592 DMAOps:96 Offloads:24 FaawOps:1536}",
	},
	{
		name:     "acc.sync clipped tiles",
		spec:     runner.Spec{Cells: "60x52x36", Layout: "4x4x2", CGs: 4, Variant: "acc.sync", Steps: 2, Functional: true},
		fieldSHA: "71d36c55cf558b67a181239726a13cdae3c627ee44d845a6cfb33e1c3c72216c",
		wallBits: 0x3fbe1acd57d12aa3,
		counters: "{Flops:53688960 ExpFlops:35043840 MPEFlops:7839312 CellsComputed:224640 DMABytes:4930560 DMAOps:384 Offloads:64 FaawOps:4096}",
	},
	{
		name:     "host.sync",
		spec:     runner.Spec{Cells: "32x32x16", Layout: "2x2x1", CGs: 2, Variant: "host.sync", Steps: 3, Functional: true},
		fieldSHA: "90e1d75c205860977489d6d028a97bfca1004506b7fd5551a26861b136aa2848",
		wallBits: 0x3fa2e973b155ead1,
		counters: "{Flops:0 ExpFlops:0 MPEFlops:14950944 CellsComputed:49152 DMABytes:0 DMAOps:0 Offloads:0 FaawOps:0}",
	},
	{
		name: "stalled gang re-offload",
		spec: runner.Spec{Cells: "16x16x16", Layout: "2x2x1", CGs: 2, Variant: "acc.async", Steps: 3, Functional: true,
			TileSize: "8x8x4", Faults: &faults.Plan{Seed: 11, Stall: 0.3}},
		fieldSHA: "6131a1cf4ca7111b15b8e84c0bb0cb5f3efc88bb621aca75d25157326627d364",
		wallBits: 0x3fad109838384682,
		counters: "{Flops:4649984 ExpFlops:3035136 MPEFlops:1336608 CellsComputed:19456 DMABytes:520448 DMAOps:152 Offloads:19 FaawOps:1209}",
	},
}

func TestFunctionalBitIdentity(t *testing.T) {
	for _, g := range functionalGolden {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", g.name, workers), func(t *testing.T) {
				cfg, prob, err := SpecConfig(g.spec)
				if err != nil {
					t.Fatal(err)
				}
				// The scheduler sizes its tile queue to GOMAXPROCS.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				s, err := core.NewSimulation(cfg, prob)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(g.spec.Steps)
				if err != nil {
					t.Fatal(err)
				}
				if g.spec.Faults != nil && (res.Faults == nil || res.Faults.Reoffloads == 0) {
					t.Fatalf("fault plan caused no re-offload: %+v", res.Faults)
				}
				var u *taskgraph.Label
				for l := range prob.Initial {
					u = l
				}
				f, err := s.GatherField(u)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				var b [8]byte
				s.Level.Layout.Domain.ForEach(func(c grid.IVec) {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(f.At(c)))
					h.Write(b[:])
				})
				sha := fmt.Sprintf("%x", h.Sum(nil))
				wall := math.Float64bits(float64(res.WallTime))
				ctr := fmt.Sprintf("%+v", res.Counters)
				if sha != g.fieldSHA || wall != g.wallBits || ctr != g.counters {
					t.Errorf("diverged from the recorded table:\n fieldSHA: %q,\n wallBits: %#x,\n counters: %q,\nwant\n fieldSHA: %q,\n wallBits: %#x,\n counters: %q,",
						sha, wall, ctr, g.fieldSHA, g.wallBits, g.counters)
				}
			})
		}
	}
}
