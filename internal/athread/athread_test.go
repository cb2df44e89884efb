package athread

import (
	"strings"
	"testing"

	"sunuintah/internal/faults"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/perf"
	"sunuintah/internal/sim"
	"sunuintah/internal/sw26010"
)

func newGroup(t *testing.T) (*sim.Engine, *Group, *sw26010.CoreGroup) {
	t.Helper()
	eng := sim.NewEngine()
	cg := sw26010.NewMachine(eng, perf.DefaultParams(), 1).CG(0)
	return eng, NewGroup(cg), cg
}

var testSpec = KernelSpec{
	Name:            "test",
	FlopsPerCell:    311,
	ExpFlopsPerCell: 215,
	Weight:          1,
	SIMD:            false,
}

func TestSpawnRunsBodyOncePerCPE(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	var ids []int
	g.Launch(testSpec, 64, flag, func(c *CPE) {
		ids = append(ids, c.ID)
		c.Compute(10)
	})
	if len(ids) != 64 {
		t.Fatalf("body ran %d times", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("CPE order: ids[%d] = %d", i, id)
		}
	}
	eng.Run()
	if flag.Value() != 64 {
		t.Fatalf("flag = %d, want 64", flag.Value())
	}
}

func TestSpawnCompletionTimeMatchesSlowestCPE(t *testing.T) {
	eng, g, cg := newGroup(t)
	p := cg.Params
	flag := sim.NewCounter(eng, "flag")
	// CPE 7 computes 1000 cells; everyone else idles.
	last := g.Launch(testSpec, 64, flag, func(c *CPE) {
		if c.ID == 7 {
			c.Compute(1000)
		}
	}).Done
	want := sim.Time(p.OffloadCost) + sim.Time(p.CPEComputeTime(1000, false, 1)) + sim.Time(p.FaawCost)
	if diff := float64(last - want); diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("last = %v, want %v", last, want)
	}
	end := eng.Run()
	if end != last {
		t.Fatalf("engine end = %v, want %v", end, last)
	}
}

func TestFlagIncrementsSpreadOverTime(t *testing.T) {
	eng, g, cg := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	g.Launch(testSpec, 64, flag, func(c *CPE) {
		c.Compute(int64(c.ID) * 100) // imbalanced load
	})
	// Midway through the run, some but not all CPEs have finished.
	p := cg.Params
	mid := sim.Time(p.OffloadCost) + sim.Time(p.CPEComputeTime(3200, false, 1))
	eng.RunUntil(mid)
	v := flag.Value()
	if v == 0 || v == 64 {
		t.Fatalf("flag midway = %d, want partial completion", v)
	}
	eng.Run()
	if flag.Value() != 64 {
		t.Fatalf("flag final = %d", flag.Value())
	}
}

func TestOverlappingSpawnPanics(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	g.Launch(testSpec, 64, flag, func(c *CPE) { c.Compute(1) })
	if !g.Busy() {
		t.Fatal("group should be busy after spawn")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping spawn")
		}
	}()
	g.Launch(testSpec, 64, flag, func(c *CPE) {})
}

func TestGroupBecomesIdleAfterCompletion(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	g.Launch(testSpec, 64, flag, func(c *CPE) { c.Compute(5) })
	eng.Run()
	if g.Busy() {
		t.Fatal("group still busy after completion")
	}
	// A second offload is now legal.
	flag2 := sim.NewCounter(eng, "flag2")
	g.Launch(testSpec, 64, flag2, func(c *CPE) {})
	eng.Run()
	if flag2.Value() != 64 {
		t.Fatal("second offload did not complete")
	}
}

func TestGetComputePutFunctional(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	interior := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 8))
	src := field.NewCellWithGhost(interior, 1)
	src.FillFunc(src.Alloc(), func(c grid.IVec) float64 {
		return float64(c.X + c.Y + c.Z)
	})
	dst := field.NewCell(interior)

	g.Launch(testSpec, 1, flag, func(c *CPE) {
		if c.ID != 0 {
			return
		}
		in, err := c.Get(interior.Grow(1), src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.NewBuf(interior, dst)
		if err != nil {
			t.Fatal(err)
		}
		// "Kernel": copy shifted neighbour value.
		interior.ForEach(func(cell grid.IVec) {
			out.Data.Set(cell, in.Data.At(cell.Sub(grid.IV(1, 0, 0))))
		})
		c.Compute(interior.NumCells())
		c.Put(out)
		c.Release(in)
		c.Release(out)
	})
	eng.Run()
	interior.ForEach(func(cell grid.IVec) {
		want := src.At(cell.Sub(grid.IV(1, 0, 0)))
		if dst.At(cell) != want {
			t.Fatalf("cell %v = %v, want %v", cell, dst.At(cell), want)
		}
	})
}

// An LDM buffer's data is a window onto the main-memory field: bounded to
// the staged region like the copy it replaces, valid after Release (a
// deferred kernel body still computes on it), and drawn from a per-group
// slab that later offloads reuse instead of allocating.
func TestLDMBufIsBoundedWindowFromReusedSlab(t *testing.T) {
	eng, g, _ := newGroup(t)
	patch := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 8))
	tile := grid.BoxFromSize(grid.IV(4, 4, 2), grid.IV(4, 4, 2))
	src := field.NewCellWithGhost(patch, 1)
	src.FillFunc(src.Alloc(), func(c grid.IVec) float64 { return float64(c.X + 100*c.Y + 10000*c.Z) })

	var kept *field.Cell
	offload := func() {
		g.Launch(testSpec, 64, sim.NewCounter(eng, "flag"), func(c *CPE) {
			in, err := c.Get(tile.Grow(1), src)
			if err != nil {
				t.Fatal(err)
			}
			if c.ID == 0 {
				kept = in.Data
			}
			c.Release(in)
			if in.Data != nil {
				t.Fatal("released buffer still exposes its data")
			}
		})
		eng.Run()
	}
	offload()
	if kept.Alloc() != tile.Grow(1) {
		t.Fatalf("window covers %v, want the staged region %v", kept.Alloc(), tile.Grow(1))
	}
	if got, want := kept.At(tile.Lo), src.At(tile.Lo); got != want {
		t.Fatalf("window reads %v after Release, field holds %v", got, want)
	}
	outside := tile.Grow(1).Hi // one past the staged corner, inside src
	src.At(outside)
	defer func() {
		if recover() == nil {
			t.Fatal("reading one cell outside the staged region did not panic")
		}
	}()
	// A handful per offload (flag counter, handle, CPE context); 64 more
	// would be the buffer records, which must come from the slab.
	if n := testing.AllocsPerRun(5, offload); n > 20 {
		t.Errorf("%v allocations per warm offload: LDM buffer records are not reused", n)
	}
	kept.At(outside)
}

func TestLDMOverflowRejected(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	big := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(32, 32, 16)) // 128 KiB
	g.Launch(testSpec, 64, flag, func(c *CPE) {
		buf, err := c.Get(big, nil)
		if err == nil {
			t.Fatal("oversized LDM buffer accepted")
		}
		if !strings.Contains(err.Error(), "LDM overflow") {
			t.Fatalf("error = %v", err)
		}
		if buf != nil {
			t.Fatal("buffer returned with error")
		}
	})
}

func TestLDMAccountingAcrossBuffers(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	tile := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 8))
	g.Launch(testSpec, 64, flag, func(c *CPE) {
		in, err := c.Get(tile.Grow(1), nil) // 25920 B
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.NewBuf(tile, nil) // 16384 B
		if err != nil {
			t.Fatal(err)
		}
		if c.ldmUsed != 18*18*10*8+16*16*8*8 {
			t.Fatalf("LDM used = %d", c.ldmUsed)
		}
		// The paper's 41.3 KiB working set fits; a third tile buffer
		// does not.
		if _, err := c.NewBuf(tile.Grow(1), nil); err == nil {
			t.Fatal("third buffer should overflow the 64 KiB LDM")
		}
		c.Release(in)
		c.Release(out)
	})
}

func TestLDMLeakPanics(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on leaked LDM")
		}
	}()
	g.Launch(testSpec, 64, flag, func(c *CPE) {
		if _, err := c.Get(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(4, 4, 4)), nil); err != nil {
			t.Fatal(err)
		}
		// no Release
	})
}

func TestCountersCharged(t *testing.T) {
	eng, g, cg := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	tile := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 8))
	g.Launch(testSpec, 64, flag, func(c *CPE) {
		in, _ := c.Get(tile.Grow(1), nil)
		out, _ := c.NewBuf(tile, nil)
		c.Compute(tile.NumCells())
		c.Put(out)
		c.Release(in)
		c.Release(out)
	})
	ctr := cg.Counters
	cells := tile.NumCells() * 64
	if ctr.CellsComputed != cells {
		t.Errorf("CellsComputed = %d, want %d", ctr.CellsComputed, cells)
	}
	if ctr.Flops != int64(311*float64(cells)) {
		t.Errorf("Flops = %d", ctr.Flops)
	}
	if ctr.ExpFlops != int64(215*float64(cells)) {
		t.Errorf("ExpFlops = %d", ctr.ExpFlops)
	}
	wantDMA := int64(64) * (tile.Grow(1).NumCells() + tile.NumCells()) * 8
	if ctr.DMABytes != wantDMA {
		t.Errorf("DMABytes = %d, want %d", ctr.DMABytes, wantDMA)
	}
	if ctr.DMAOps != 128 {
		t.Errorf("DMAOps = %d", ctr.DMAOps)
	}
	if ctr.Offloads != 1 || ctr.FaawOps != 64 {
		t.Errorf("Offloads = %d FaawOps = %d", ctr.Offloads, ctr.FaawOps)
	}
}

func TestSIMDSpecRunsFaster(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "f1")
	scalarT := g.Launch(testSpec, 64, flag, func(c *CPE) { c.Compute(1000) }).Done
	eng.Run()
	simdSpec := testSpec
	simdSpec.SIMD = true
	flag2 := sim.NewCounter(eng, "f2")
	simdT := g.Launch(simdSpec, 64, flag2, func(c *CPE) { c.Compute(1000) }).Done
	eng.Run()
	if simdT >= scalarT {
		t.Fatalf("simd %v not faster than scalar %v", simdT, scalarT)
	}
}

func TestDMAContentionSlowsTransfers(t *testing.T) {
	eng, g, _ := newGroup(t)
	tile := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 8))
	run := func(active int) sim.Time {
		flag := sim.NewCounter(eng, "f")
		d := g.Launch(testSpec, active, flag, func(c *CPE) {
			in, _ := c.Get(tile, nil)
			c.Release(in)
		}).Done
		eng.Run()
		return d
	}
	solo := run(1)
	crowded := run(64)
	if crowded <= solo {
		t.Fatalf("contended spawn %v should be slower than solo %v", crowded, solo)
	}
}

func TestOverlapDMAEndTileMatchesRepeatTiles(t *testing.T) {
	// With double buffering, n tiles cost (dma+compute) + (n-1)*max(dma,
	// compute); the per-tile Get/Compute/Put/EndTile path must charge
	// exactly what the analytic RepeatTiles fast path charges.
	spec := testSpec
	spec.OverlapDMA = true
	tile := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 8))
	ghosted := tile.Grow(1)
	const n = 5

	run := func(perTile bool) sim.Time {
		eng, g, _ := newGroup(t)
		flag := sim.NewCounter(eng, "f")
		dur := g.Launch(spec, 64, flag, func(c *CPE) {
			if c.ID != 0 {
				return
			}
			if !perTile {
				c.RepeatTiles(n, ghosted.NumCells()*8, tile.NumCells()*8, tile.NumCells())
				return
			}
			for i := 0; i < n; i++ {
				in, err := c.Get(ghosted, nil)
				if err != nil {
					t.Fatal(err)
				}
				out, err := c.NewBuf(tile, nil)
				if err != nil {
					t.Fatal(err)
				}
				c.Compute(tile.NumCells())
				c.Put(out)
				c.Release(in)
				c.Release(out)
				c.EndTile()
			}
		}).Done
		eng.Run()
		return dur
	}
	slow := run(true)
	fast := run(false)
	if d := float64(slow - fast); d > 1e-12 || d < -1e-12 {
		t.Fatalf("per-tile overlap accounting %v != analytic %v", slow, fast)
	}
}

func TestPackedDMACheaper(t *testing.T) {
	packed := testSpec
	packed.PackedDMA = true
	tile := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 8))
	run := func(spec KernelSpec) sim.Time {
		eng, g, _ := newGroup(t)
		flag := sim.NewCounter(eng, "f")
		dur := g.Launch(spec, 64, flag, func(c *CPE) {
			in, _ := c.Get(tile, nil)
			c.Release(in)
		}).Done
		eng.Run()
		return dur
	}
	if a, b := run(packed), run(testSpec); a >= b {
		t.Fatalf("packed DMA (%v) not cheaper than strided (%v)", a, b)
	}
}

// eventsOf runs the engine dry and returns how many events that took.
func eventsOf(eng *sim.Engine) uint64 {
	before := eng.EventsExecuted()
	eng.Run()
	return eng.EventsExecuted() - before
}

func TestOneCompletionEventPerDistinctFinishTime(t *testing.T) {
	cases := []struct {
		name   string
		noise  float64
		body   func(c *CPE)
		events uint64
	}{
		{"uniform", 0, func(c *CPE) { c.Compute(500) }, 1},
		// 70 tiles over 64 CPEs: six CPEs take two, the rest one.
		{"uniform tiling with remainder", 0, func(c *CPE) {
			n := 1
			if c.ID < 6 {
				n = 2
			}
			c.RepeatTiles(n, 4096, 2048, 256)
		}, 2},
		{"four load classes", 0, func(c *CPE) { c.Compute(int64(c.ID%4) * 100) }, 4},
		{"every CPE different", 0, func(c *CPE) { c.Compute(int64(c.ID) * 100) }, 64},
		// Machine noise jitters each CPE's compute: nothing coincides and
		// the gang is back to one event per CPE with no switch thrown.
		{"uniform under noise", 0.05, func(c *CPE) { c.Compute(500) }, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p := perf.DefaultParams()
			p.NoiseFraction = tc.noise
			cg := sw26010.NewMachine(eng, p, 1).CG(0)
			g := NewGroup(cg)
			flag := sim.NewCounter(eng, "flag")
			done := g.Launch(testSpec, 64, flag, tc.body).Done
			if got := eventsOf(eng); got != tc.events {
				t.Errorf("%d events, want %d", got, tc.events)
			}
			if flag.Value() != 64 || g.Busy() || eng.Now() != done {
				t.Errorf("flag = %d busy = %v now = %v, want 64 false %v", flag.Value(), g.Busy(), eng.Now(), done)
			}
			if ops := cg.Counters.FaawOps; ops != 64 {
				t.Errorf("FaawOps = %d, want one per CPE", ops)
			}
		})
	}
}

// The group is freed by the same event as the last flag update, and not a
// moment earlier: a process parked on the flag wakes at the fill instant
// and finds the group free.
func TestBusyClearsWithTheLastIncrement(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	done := g.Launch(testSpec, 64, flag, func(c *CPE) { c.Compute(int64(c.ID%2+1) * 100) }).Done
	busyAtReach, wokeAt := true, sim.Time(-1)
	eng.Spawn("waiter", func(p *sim.Process) {
		flag.NotifyAt(p, 64)
		p.Park(sim.Infinity)
		busyAtReach, wokeAt = g.Busy(), p.Now()
	})
	eng.RunUntil(done - 1e-9)
	if flag.Value() != 32 || !g.Busy() {
		t.Fatalf("before the slow half: flag = %d busy = %v, want 32 true", flag.Value(), g.Busy())
	}
	eng.Run()
	if flag.Value() != 64 || g.Busy() || busyAtReach || wokeAt != done {
		t.Fatalf("flag = %d busy = %v, busy when the flag filled = %v at %v, want %v",
			flag.Value(), g.Busy(), busyAtReach, wokeAt, done)
	}
}

func TestAbortStalledGangMidFlight(t *testing.T) {
	eng, g, cg := newGroup(t)
	cg.Faults = faults.NewInjector(&faults.Plan{Stall: 1})
	flag := sim.NewCounter(eng, "flag")
	off := g.Launch(testSpec, 64, flag, func(c *CPE) { c.Compute(int64(c.ID%8+1) * 100) })
	if !off.Stalled || off.Done != sim.Infinity || off.Estimate <= 0 {
		t.Fatalf("offload = %+v, want a stalled gang with a healthy estimate", off)
	}
	if cg.Counters.FaawOps != 63 {
		t.Fatalf("FaawOps = %d, want 63: the hung CPE never reports", cg.Counters.FaawOps)
	}
	eng.RunUntil(off.Estimate / 2)
	mid := flag.Value()
	if mid == 0 || mid >= 63 || !g.Busy() {
		t.Fatalf("midway: flag = %d busy = %v", mid, g.Busy())
	}
	off.Abort()
	executed := eng.EventsExecuted()
	eng.Run() // a live event left behind by Abort would fire here
	if g.Busy() || eng.EventsExecuted() != executed {
		t.Fatalf("after Abort: busy = %v, %d events still fired", g.Busy(), eng.EventsExecuted()-executed)
	}
	off.Abort() // idempotent

	// The next launch reuses the aborted one's list entries. Nothing of the
	// old gang may reach either flag, and the old handle is inert.
	cg.Faults = nil
	flag2 := sim.NewCounter(eng, "flag2")
	off2 := g.Launch(testSpec, 64, flag2, func(c *CPE) { c.Compute(100) })
	off.Abort()
	if !g.Busy() {
		t.Fatal("a stale handle's Abort freed the group under a live offload")
	}
	if got := eventsOf(eng); got != 1 {
		t.Errorf("relaunch ran %d events, want 1", got)
	}
	if flag.Value() != mid || flag2.Value() != 64 || g.Busy() {
		t.Fatalf("flag = %d (was %d) flag2 = %d busy = %v", flag.Value(), mid, flag2.Value(), g.Busy())
	}
	if eng.Now() != off.Estimate/2+off2.Done {
		t.Fatalf("relaunch completed at %v, want %v", eng.Now(), off.Estimate/2+off2.Done)
	}
}

// A stalled gang that is never aborted holds the group forever: no entry
// stands in for the hung CPE, whatever its finish time coincides with.
func TestStalledGangNeverCompletes(t *testing.T) {
	eng, g, cg := newGroup(t)
	cg.Faults = faults.NewInjector(&faults.Plan{Stall: 1})
	flag := sim.NewCounter(eng, "flag")
	g.Launch(testSpec, 64, flag, func(c *CPE) { c.Compute(100) })
	if got := eventsOf(eng); got != 1 {
		t.Errorf("%d events, want 1", got)
	}
	if flag.Value() != 63 || !g.Busy() {
		t.Fatalf("flag = %d busy = %v, want 63 true", flag.Value(), g.Busy())
	}
}

// A warm launch allocates its handle and nothing else: the CPE context, the
// LDM records and the completion list belong to the group.
func TestWarmLaunchAllocs(t *testing.T) {
	eng, g, _ := newGroup(t)
	flag := sim.NewCounter(eng, "flag")
	body := func(c *CPE) { c.RepeatTiles(1+c.ID%2, 4096, 2048, 256) }
	launch := func() {
		flag.Reset()
		g.Launch(testSpec, 64, flag, body)
		eng.Run()
	}
	launch()
	if n := testing.AllocsPerRun(50, launch); n > 1 {
		t.Fatalf("a warm Launch allocates %v times, want at most 1", n)
	}
}
