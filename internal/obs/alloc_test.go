package obs

import "testing"

// The disabled recorder must stay free: every hook on nil probes (the
// state of every run without -report) is a no-op that allocates nothing,
// so attaching the obs plumbing to the hot paths cannot regress bench's
// end-to-end numbers.
func TestNilProbesZeroAlloc(t *testing.T) {
	var p *RankProbes
	var s *Sampler
	allocs := testing.AllocsPerRun(200, func() {
		p.QueueDepth(1, 3)
		p.QueueDelta(1, -1)
		p.Prepared(1, 2)
		p.Gangs(1, 1)
		p.MsgSent(1, 4096, 2)
		p.DMA(1, 1<<16)
		p.Mem(1, 1<<20)
		p.Fault(1)
		p.Recovery(1)
		_ = s.Rank(3)
		s.Finalize(1)
	})
	if allocs != 0 {
		t.Fatalf("nil probes allocated %.1f times per run, want 0", allocs)
	}
}

// The live-progress hook follows the same contract: a publish with no
// subscriber — what every non-followed run pays per rank-step — allocates
// nothing.
func TestNilProgressZeroAlloc(t *testing.T) {
	var nilBus *ProgressBus
	bus := NewProgressBus()
	ev := ProgressEvent{Rank: 1, Step: 2, Done: 3, Total: 10}
	allocs := testing.AllocsPerRun(200, func() {
		nilBus.Publish("topic", ev)
		bus.Publish("topic", ev)
	})
	if allocs != 0 {
		t.Fatalf("disabled progress hooks allocated %.1f times per run, want 0", allocs)
	}
}
