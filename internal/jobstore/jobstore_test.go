package jobstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sunuintah/internal/runner"
)

func spec(steps int) runner.Spec {
	return runner.Spec{Cells: "16x16x32", Layout: "2x2x1", CGs: 2, Variant: "acc.async", Steps: steps}
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	if err := s.Accept(Record{ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish("j1", runner.StateDone, time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	if got := s.Records(); got != nil {
		t.Fatalf("nil store records = %v", got)
	}
	if s.MaxID() != 0 || s.Len() != 0 {
		t.Fatal("nil store not empty")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0).UTC()
	for i, st := range []runner.JobState{runner.StateDone, runner.StateRunning, runner.StateFailed} {
		id := []string{"j1", "j2", "j3"}[i]
		if err := s.Accept(Record{ID: id, Tenant: "t1", Spec: spec(i + 1), Repeats: 1, State: runner.StateQueued, Submitted: t0}); err != nil {
			t.Fatal(err)
		}
		switch st {
		case runner.StateRunning:
			if err := s.SetState(id, runner.StateRunning); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.Finish(id, st, t0.Add(time.Second), map[bool]string{true: "boom", false: ""}[st == runner.StateFailed]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: snapshot + journal reproduce the full state.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if recs[0].ID != "j1" || recs[0].State != runner.StateDone || recs[0].Finished == nil {
		t.Fatalf("j1 = %+v", recs[0])
	}
	if recs[1].State != runner.StateRunning {
		t.Fatalf("j2 state = %s", recs[1].State)
	}
	if recs[2].State != runner.StateFailed || recs[2].Error != "boom" {
		t.Fatalf("j3 = %+v", recs[2])
	}
	if recs[1].Spec.Steps != 2 {
		t.Fatalf("j2 spec steps = %d", recs[1].Spec.Steps)
	}
	inc := incomplete(s2)
	if len(inc) != 1 || inc[0].ID != "j2" {
		t.Fatalf("incomplete = %v", inc)
	}
	if s2.MaxID() != 3 {
		t.Fatalf("MaxID = %d", s2.MaxID())
	}
}

func TestTornTrailingLineIsIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Accept(Record{ID: "j1", Spec: spec(1), State: runner.StateQueued})
	s.Accept(Record{ID: "j2", Spec: spec(2), State: runner.StateQueued})
	// Simulate a crash mid-append: garbage with no newline at the tail.
	s.journal.Write([]byte(`{"op":"state","id":"j2","sta`))
	s.journal.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn journal failed to open: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", s2.Len())
	}
	if got := s2.Records()[1].State; got != runner.StateQueued {
		t.Fatalf("torn state applied: %s", got)
	}
}

// TestTornTailSurvivesSecondCrash: entries accepted after reopening a torn
// journal survive the next crash. Appending straight after the fragment
// would glue the first of them onto it, and the next replay would stop
// there and lose them all.
func TestTornTailSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Accept(Record{ID: "j1", Spec: spec(1), State: runner.StateQueued})
	s.journal.Write([]byte(`{"op":"accept","record":{"id":"j2"`))
	s.journal.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Accept(Record{ID: "j3", Spec: spec(3), State: runner.StateQueued})
	s.Finish("j1", runner.StateDone, time.Now(), "")
	s.journal.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := s.Records()
	if len(recs) != 2 || recs[0].ID != "j1" || recs[0].State != runner.StateDone ||
		recs[1].ID != "j3" || recs[1].State != runner.StateQueued {
		t.Fatalf("after two crashes: %+v, want j1 done and j3 queued", recs)
	}
}

// FuzzJournalReplay writes arbitrary snapshot and journal bytes and opens
// the store. Open must not panic, and a store it returns must keep what it
// accepts next across a crash (journal closed, no compaction) and a reopen.
// An empty snapshot argument means no snapshot file.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		dir := t.TempDir()
		if len(snapshot) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		probe := Record{ID: "jprobe", Tenant: "fuzz-probe", Spec: spec(1), State: runner.StateRunning}
		if err := s.Accept(probe); err != nil {
			t.Fatal(err)
		}
		s.journal.Close()

		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen after a crash: %v", err)
		}
		defer s.Close()
		for _, rec := range s.Records() {
			if rec.ID == probe.ID && rec.Tenant == probe.Tenant && rec.State == probe.State {
				return
			}
		}
		t.Fatalf("accepted record lost across a crash: %+v", s.Records())
	})
}

func TestDropForgetsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Accept(Record{ID: "j1", Spec: spec(1), State: runner.StateQueued})
	s.Accept(Record{ID: "j2", Spec: spec(2), State: runner.StateQueued})
	s.Finish("j1", runner.StateDone, time.Now(), "")
	s.Drop("j1")
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 1 || recs[0].ID != "j2" {
		t.Fatalf("dropped job resurrected: %v", recs)
	}
	// MaxID still advances past dropped IDs? j1 was dropped, so MaxID
	// reflects live records only; the server additionally seeds from the
	// snapshot, which is fine because collisions only matter for live IDs.
	if s2.MaxID() != 2 {
		t.Fatalf("MaxID = %d", s2.MaxID())
	}
}

func TestCompactTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 10; i++ {
		s.Accept(Record{ID: "j" + string(rune('0'+i)), Spec: spec(1), State: runner.StateQueued})
	}
	s.mu.Lock()
	err := s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n := s.JournalEntries(); n != 0 {
		t.Fatalf("journal entries after compact = %d", n)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.TrimSpace(string(data))) != 0 {
		t.Fatalf("journal not truncated: %q", data)
	}
	// Appends after compaction land in the fresh journal and survive.
	s.Finish("j3", runner.StateDone, time.Now(), "")
	s.Close()
	s2, _ := Open(dir)
	defer s2.Close()
	var found bool
	for _, r := range s2.Records() {
		if r.ID == "j3" && r.State == runner.StateDone {
			found = true
		}
	}
	if !found || s2.Len() != 10 {
		t.Fatalf("post-compact append lost: len=%d found=%v", s2.Len(), found)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := "j" + string(rune('a'+g)) + string(rune('0'+i%10))
				s.Accept(Record{ID: id, Spec: spec(1), State: runner.StateQueued})
				s.Finish(id, runner.StateDone, time.Now(), "")
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(incomplete(s2)); got != 0 {
		t.Fatalf("%d jobs incomplete after concurrent finish", got)
	}
}

func TestNumericID(t *testing.T) {
	for id, want := range map[string]int{"j17": 17, "j1": 1, "s3": 3, "": 0, "jx": 0} {
		if got := NumericID(id); got != want {
			t.Errorf("NumericID(%q) = %d, want %d", id, got, want)
		}
	}
}

// incomplete returns the records that have not reached a terminal state.
func incomplete(s *Store) []Record {
	var out []Record
	for _, rec := range s.Records() {
		if !rec.Terminal() {
			out = append(out, rec)
		}
	}
	return out
}
