// Package admission is the front door of a job service built on
// runner.Pool: a bounded admission window, with Retry-After hints computed
// from an EWMA of observed execution times.
//
// The controller deliberately does not queue anything itself — the pool
// owns the queue. Admission only decides whether one more job may join
// the pool's outstanding set, so overload turns into fast 429 responses
// at the HTTP edge instead of unbounded memory growth behind it (the
// backpressure discipline that keeps asynchronous task systems stable
// under load).
//
// A nil *Controller admits everything, so callers can wire admission
// through unconditionally and turn it off by passing nil.
package admission

import (
	"sync"
	"time"
)

// ReasonQueueFull is the rejection reason, also used as a metric label
// value.
const ReasonQueueFull = "queue_full"

// Config configures a Controller.
type Config struct {
	// MaxQueued is the number of admitted jobs allowed to wait beyond the
	// executing set; <= 0 defaults to 256.
	MaxQueued int
	// MaxRunning is the executing-slot count — normally the pool's worker
	// count; <= 0 defaults to 1.
	MaxRunning int
}

// Decision is the outcome of one Admit call.
type Decision struct {
	OK bool
	// Reason is the rejection class (ReasonQueueFull); empty on admission.
	Reason string
	// RetryAfter is the suggested client back-off: the estimated time for
	// enough of the backlog to drain.
	RetryAfter time.Duration
}

// Metrics is a point-in-time snapshot of the controller's state. Callers
// count the decisions themselves.
type Metrics struct {
	Outstanding int     `json:"outstanding"`
	ExecEWMA    float64 `json:"execEWMASeconds"`
}

// Controller applies the admission policy. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu          sync.Mutex
	outstanding int // admitted jobs not yet released
	ewma        float64
}

// New builds a controller, applying Config defaults.
func New(cfg Config) *Controller {
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 256
	}
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 1
	}
	return &Controller{cfg: cfg}
}

// execEstimate is the per-job drain estimate: the exec-time EWMA, or one
// second before any observation has arrived.
func (c *Controller) execEstimate() float64 {
	if c.ewma > 0 {
		return c.ewma
	}
	return 1
}

// clampRetry keeps Retry-After honest and HTTP-friendly: at least one
// second (the header's resolution), at most five minutes.
func clampRetry(sec float64) time.Duration {
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return time.Duration(sec * float64(time.Second))
}

// Admit decides whether one more job may join the pool. On admission the
// caller owes exactly one Done call.
func (c *Controller) Admit() Decision {
	if c == nil {
		return Decision{OK: true}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.outstanding >= c.cfg.MaxRunning+c.cfg.MaxQueued {
		queued := c.outstanding - c.cfg.MaxRunning
		drain := c.execEstimate() * float64(queued+1) / float64(c.cfg.MaxRunning)
		return Decision{Reason: ReasonQueueFull, RetryAfter: clampRetry(drain)}
	}
	c.outstanding++
	return Decision{OK: true}
}

// Reserve admits a job unconditionally — restart recovery readmitting
// journaled jobs that were accepted by a previous incarnation. The caller
// owes one Done per Reserve.
func (c *Controller) Reserve() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.outstanding++
	c.mu.Unlock()
}

// Done releases one admitted slot and, when execSeconds > 0, folds the
// observed execution time into the EWMA that prices Retry-After (cache
// hits pass 0: they cost the queue nothing and should not inflate it).
func (c *Controller) Done(execSeconds float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.outstanding > 0 {
		c.outstanding--
	}
	if execSeconds > 0 {
		if c.ewma == 0 {
			c.ewma = execSeconds
		} else {
			c.ewma = 0.2*execSeconds + 0.8*c.ewma
		}
	}
	c.mu.Unlock()
}

// Metrics snapshots the controller's state.
func (c *Controller) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{Outstanding: c.outstanding, ExecEWMA: c.ewma}
}
