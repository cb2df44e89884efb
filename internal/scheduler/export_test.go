package scheduler

// PatchWaits returns how often the rank's MPE found a job in flight on the
// patch whose old fields it was about to write, and waited for it.
func (s *Rank) PatchWaits() int64 { return s.patchWaits }

// WorkersStarted returns how many tile-worker goroutines the rank's slots
// have started.
func (s *Rank) WorkersStarted() (n int64) {
	for _, sl := range s.slots {
		n += sl.job.spawned
	}
	return n
}
