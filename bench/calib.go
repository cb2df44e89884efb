package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// This sandbox's speed swings by 30–40% over minutes (neighbours on the
// host): a long-lived process stepping halo-steady saw 16.5–21.9 ms/step in
// four minutes, and two fixed probes — an arithmetic loop and a dependent
// walk through 8 MB — moved with it. Dividing each window by the probe time
// read right after it took that series' spread from 13.7% to 5.4%. So the
// workloads whose measuring goroutine owns a CPU between windows
// (halo-steady, functional-burgers) read the probes after every window and
// report each window at the reference host speed: time × speed index. The
// workloads that keep every CPU busy while they measure (matrix-sweep,
// serve-mixed) cannot take a clean reading and report as measured; a
// run-level index from readings at phase boundaries made their spread worse,
// not better. The probes use nothing from the repository, so no change to the
// program can move them.

// Reference probe times: what this host usually read, right after a window,
// when the benchmark was defined; the speed index is 1 there.
const (
	refArithMs = 3.30
	refChaseMs = 2.70
)

const (
	arithIters = 2_000_000
	chaseHops  = 50_000
	chaseSlots = 1 << 21 // 8 MB of int32: about the L2 size, far inside L3
)

// calibrator reads the host's speed during a run. A nil calibrator reads 1
// without probing: the traced run measures as is and keeps the probes out of
// its CPU profile.
type calibrator struct {
	chain  []int32 // one random cycle through all slots
	sink   float64 // keeps the probe loops from being optimised away
	speeds []float64
	// spent is the time the probes have used, for callers that meter the
	// process's CPU around a loop that reads.
	spent time.Duration
}

// newCalibrator builds the walk's table outside the Go heap, so the probes do
// not change how often the measured program's garbage collector runs.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 4*chaseSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{chain: unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), chaseSlots)}
	// A random cycle through all slots, built in place (Sattolo's shuffle).
	for i := range c.chain {
		c.chain[i] = int32(i)
	}
	r := rand.New(rand.NewSource(1))
	for i := chaseSlots - 1; i > 0; i-- {
		j := r.Intn(i)
		c.chain[i], c.chain[j] = c.chain[j], c.chain[i]
	}
	return c, nil
}

func (c *calibrator) arithMs() float64 {
	x, s := 0.5, 0.0
	t0 := time.Now()
	for i := 0; i < arithIters; i++ {
		s += x * (1 + x*(0.5+x*(0.1666+x*0.04166)))
		x += 1e-9
	}
	c.sink += s
	return ms(time.Since(t0))
}

// chaseMs walks the same path twice and times the second walk, so the
// reading depends on the host's cache latency and not on what the measured
// program left in the caches.
func (c *calibrator) chaseMs() float64 {
	var t0 time.Time
	for pass := 0; pass < 2; pass++ {
		j := int32(0)
		t0 = time.Now()
		for i := 0; i < chaseHops; i++ {
			j = c.chain[j]
		}
		c.sink += float64(j)
	}
	return ms(time.Since(t0))
}

// read times both probes once (≈10 ms), each weighted half, and returns the
// speed index at this moment: 1 at the reference host speed, below 1 when
// the host is slower. Call it right after a measured window, from a goroutine
// that has a CPU to itself, and scale that window's time by it.
func (c *calibrator) read() float64 {
	if c == nil {
		return 1
	}
	t0 := time.Now()
	speed := 0.5*refArithMs/c.arithMs() + 0.5*refChaseMs/c.chaseMs()
	c.speeds = append(c.speeds, speed)
	c.spent += time.Since(t0)
	return speed
}

// readN is the median of n readings in a row, for scaling one long
// measurement (a set-up of a second) where a single reading is too noisy.
func (c *calibrator) readN(n int) float64 {
	reads := make([]float64, n)
	for i := range reads {
		reads[i] = c.read()
	}
	return median(reads)
}

// median is the run's speed index over all readings.
func (c *calibrator) median() float64 { return median(c.speeds) }
