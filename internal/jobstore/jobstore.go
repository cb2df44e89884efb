// Package jobstore persists sunserver's accepted jobs across process
// restarts: an append-only JSONL journal plus a periodic snapshot, both in
// one directory. Every accepted job and every state transition is one
// journal line; on open, the snapshot is loaded and the journal replayed
// on top of it, tolerating a torn final line from a crash mid-write.
//
// The store deliberately does not persist results. Results live in the
// runner's content-addressed cache keyed by Spec.Hash(), so a recovered
// incomplete job is simply resubmitted to the pool: if the disk cache
// already holds its result it completes instantly, otherwise it re-runs —
// the same at-least-once semantics either way.
//
// A nil *Store is a valid no-op store, so callers can wire persistence
// through unconditionally and turn it off by passing nil.
package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"sunuintah/internal/runner"
)

// Record is the durable fact of one accepted job: everything needed to
// resume it after a restart, and nothing derived (results are in the
// content-addressed cache).
type Record struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant,omitempty"`
	Spec      runner.Spec     `json:"spec"`
	Repeats   int             `json:"repeats,omitempty"`
	State     runner.JobState `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Terminal reports whether the record has reached a terminal state.
func (r Record) Terminal() bool { return Terminal(r.State) }

// Terminal reports whether st is a terminal job state.
func Terminal(st runner.JobState) bool {
	return st == runner.StateDone || st == runner.StateFailed || st == runner.StateCanceled
}

// entry is one journal line.
type entry struct {
	// Op is "accept" (Record set), "state" (ID/State/Finished/Error set)
	// or "drop" (ID set; the job was garbage-collected past retention).
	Op       string          `json:"op"`
	Record   *Record         `json:"record,omitempty"`
	ID       string          `json:"id,omitempty"`
	State    runner.JobState `json:"state,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Error    string          `json:"error,omitempty"`
}

const (
	snapshotFile = "snapshot.json"
	journalFile  = "journal.jsonl"
	// compactEvery bounds journal growth: after this many appended
	// entries the store folds the journal into a fresh snapshot.
	compactEvery = 4096
)

// Store is the persistent job store. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops).
type Store struct {
	mu       sync.Mutex
	dir      string
	journal  *os.File
	recs     map[string]*Record
	appended int // journal entries since the last snapshot
}

// Open loads (creating if needed) the store at dir: snapshot first, then
// the journal replayed on top. Replay stops at the first unparsable journal
// line (a crash mid-append tears the last one), and a journal that does not
// end in a whole line is compacted before Open returns; a corrupt snapshot
// is an error.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &Store{dir: dir, recs: map[string]*Record{}}

	if data, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err == nil {
		var snap []Record
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("jobstore: corrupt snapshot: %w", err)
		}
		for i := range snap {
			rec := snap[i]
			s.recs[rec.ID] = &rec
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobstore: %w", err)
	}

	jpath := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(jpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	// Replay stops at the first line that does not parse: a torn final line
	// is the expected crash artifact, and a torn middle line is equally safe
	// to stop at. No later replay would read past it, so an append after it
	// would be lost — glued onto the fragment when the file does not end in
	// a newline. Such a journal is folded into a fresh snapshot before use.
	torn := len(data) > 0 && data[len(data)-1] != '\n'
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			torn = true
			break
		}
		s.apply(e)
		s.appended++
	}

	j, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s.journal = j
	if torn {
		if err := s.compactLocked(); err != nil {
			s.journal.Close()
			return nil, err
		}
	}
	return s, nil
}

// apply folds one journal entry into the in-memory record set. Caller
// holds s.mu (or is single-threaded during Open).
func (s *Store) apply(e entry) {
	switch e.Op {
	case "accept":
		if e.Record != nil {
			rec := *e.Record
			s.recs[rec.ID] = &rec
		}
	case "state":
		if rec, ok := s.recs[e.ID]; ok {
			rec.State = e.State
			rec.Finished = e.Finished
			rec.Error = e.Error
		}
	case "drop":
		delete(s.recs, e.ID)
	}
}

// append journals one entry and applies it, compacting when due.
func (s *Store) append(e entry) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := s.journal.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("jobstore: journal append: %w", err)
	}
	s.apply(e)
	s.appended++
	if s.appended >= compactEvery {
		return s.compactLocked()
	}
	return nil
}

// Accept journals a newly accepted job.
func (s *Store) Accept(rec Record) error {
	return s.append(entry{Op: "accept", Record: &rec})
}

// SetState journals a non-terminal state transition.
func (s *Store) SetState(id string, st runner.JobState) error {
	return s.append(entry{Op: "state", ID: id, State: st})
}

// Finish journals a terminal transition with its timestamp and, for
// failures, the error message.
func (s *Store) Finish(id string, st runner.JobState, finished time.Time, errMsg string) error {
	return s.append(entry{Op: "state", ID: id, State: st, Finished: &finished, Error: errMsg})
}

// Drop journals that a job was garbage-collected past the retention cap,
// so a restart does not resurrect it.
func (s *Store) Drop(id string) error {
	return s.append(entry{Op: "drop", ID: id})
}

// Records returns every live record sorted by numeric ID.
func (s *Store) Records() []Record {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, *rec)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return NumericID(out[i].ID) < NumericID(out[j].ID) })
	return out
}

// Len reports the number of live records.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// JournalEntries reports entries appended since the last compaction — an
// observability figure for /metrics.
func (s *Store) JournalEntries() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// MaxID returns the highest numeric suffix among live record IDs ("j17"
// -> 17), so a restarted server can continue its ID sequence without
// collisions.
func (s *Store) MaxID() int {
	max := 0
	for _, rec := range s.Records() {
		if n := NumericID(rec.ID); n > max {
			max = n
		}
	}
	return max
}

// NumericID extracts the numeric suffix of an ID like "j17"; IDs without
// one sort first.
func NumericID(id string) int {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n, err := strconv.Atoi(id[i:])
	if err != nil {
		return 0
	}
	return n
}

func (s *Store) compactLocked() error {
	recs := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		recs = append(recs, *rec)
	}
	sort.Slice(recs, func(i, j int) bool { return NumericID(recs[i].ID) < NumericID(recs[j].ID) })
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, snapshotFile+".tmp*")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapshotFile)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	// The snapshot now holds everything; restart the journal. Truncate
	// via reopen so the append offset resets atomically with the handle.
	if err := s.journal.Close(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	j, err := os.OpenFile(filepath.Join(s.dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	s.journal = j
	s.appended = 0
	return nil
}

// Close compacts and closes the journal.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactLocked(); err != nil {
		s.journal.Close()
		return err
	}
	return s.journal.Close()
}
