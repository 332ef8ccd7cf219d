// Package trace wraps any counter implementation with operation counting
// and wait-time measurement: how many Checks suspend, how long they
// wait, and how many wait at once. No package imports it; the section 7
// cost-model experiments read the engines' own Stats (core.Stats).
package trace

import (
	"context"
	"sync"
	"time"

	"monotonic/internal/core"
)

// Counter wraps a core.Interface and records operation statistics. All
// counter semantics are delegated unchanged.
type Counter struct {
	inner core.Interface

	mu            sync.Mutex
	increments    uint64
	checks        uint64
	suspended     uint64
	totalWait     time.Duration
	maxWait       time.Duration
	maxConcurrent int
	waitingNow    int
}

// New wraps inner with tracing.
func New(inner core.Interface) *Counter { return &Counter{inner: inner} }

// Stats is a snapshot of a traced counter's activity.
type Stats struct {
	Increments    uint64        // Increment calls
	Checks        uint64        // Check/CheckContext calls
	Suspended     uint64        // checks that blocked
	TotalWait     time.Duration // summed blocking time
	MaxWait       time.Duration // longest single block
	MaxConcurrent int           // peak simultaneously blocked goroutines
}

// MeanWait returns the average blocking time per suspended check.
func (s Stats) MeanWait() time.Duration {
	if s.Suspended == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.Suspended)
}

// Increment implements core.Interface.
func (c *Counter) Increment(amount uint64) {
	c.mu.Lock()
	c.increments++
	c.mu.Unlock()
	c.inner.Increment(amount)
}

// Check implements core.Interface, timing any suspension. A check counts
// as suspended when the level was not yet satisfied on arrival (the
// paper's notion), determined by reading the value first — monotonicity
// makes that read conservative: a satisfied pre-read can never block.
func (c *Counter) Check(level uint64) {
	immediate := c.inner.Value() >= level
	c.mu.Lock()
	c.checks++
	c.waitingNow++
	if c.waitingNow > c.maxConcurrent {
		c.maxConcurrent = c.waitingNow
	}
	c.mu.Unlock()
	start := time.Now()
	c.inner.Check(level)
	wait := time.Since(start)
	c.mu.Lock()
	c.waitingNow--
	if !immediate {
		c.suspended++
		c.totalWait += wait
		if wait > c.maxWait {
			c.maxWait = wait
		}
	}
	c.mu.Unlock()
}

// CheckContext implements core.Interface.
func (c *Counter) CheckContext(ctx context.Context, level uint64) error {
	immediate := c.inner.Value() >= level
	c.mu.Lock()
	c.checks++
	c.waitingNow++
	if c.waitingNow > c.maxConcurrent {
		c.maxConcurrent = c.waitingNow
	}
	c.mu.Unlock()
	start := time.Now()
	err := c.inner.CheckContext(ctx, level)
	wait := time.Since(start)
	c.mu.Lock()
	c.waitingNow--
	if !immediate {
		c.suspended++
		c.totalWait += wait
		if wait > c.maxWait {
			c.maxWait = wait
		}
	}
	c.mu.Unlock()
	return err
}

// Reset implements core.Interface; statistics are preserved.
func (c *Counter) Reset() { c.inner.Reset() }

// Value implements core.Interface.
func (c *Counter) Value() uint64 { return c.inner.Value() }

// Engine returns the wrapped implementation's own cost-model stats (the
// unified core.Stats schema) when it provides them, pairing the
// wrapper's wall-clock view (wait times, concurrency) with the
// engine-level event counts for the same run. ok is false for
// implementations outside the registry that report no stats.
func (c *Counter) Engine() (s core.Stats, ok bool) {
	if p, isProvider := c.inner.(core.StatsProvider); isProvider {
		return p.Stats(), true
	}
	return core.Stats{}, false
}

// Stats returns a snapshot of the recorded activity.
func (c *Counter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Increments:    c.increments,
		Checks:        c.checks,
		Suspended:     c.suspended,
		TotalWait:     c.totalWait,
		MaxWait:       c.maxWait,
		MaxConcurrent: c.maxConcurrent,
	}
}

var _ core.Interface = (*Counter)(nil)
