package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// ChanCounter is the idiomatic-Go translation of the monotonic counter:
// each distinct waited-on level owns a channel, Check blocks receiving from
// it, and Increment broadcasts by closing the channels of the levels it
// satisfies. Closing a channel releases every receiver at once, so — like
// the reference design — wake cost is proportional to the number of
// distinct satisfied levels, not to the number of waiting goroutines.
// Context cancellation falls out naturally from select, with no watcher
// goroutine.
//
// Each gate carries a waiter refcount so the last cancelled waiter on a
// never-satisfied level reclaims the level's map entry: abandoned levels
// do not leak.
//
// ChanCounter has no waitlist engine, so it keeps the unified Stats
// tallies in the engine's collector type under its own mutex — every
// counted event already happens there. Each satisfied level is exactly
// one channel close, so its snapshots always report ChannelCloses ==
// SatisfiedLevels and Broadcasts == 0. It is the one registry
// implementation without a probe hook (no engine to hang it on); it is
// stats-only.
//
// Like every registry implementation, ChanCounter publishes its value as
// a watermark (stored under mu, before any gate close) so an
// already-satisfied Check/CheckContext is one atomic load with no mutex.
//
// The zero value is a valid counter with value zero.
type ChanCounter struct {
	mu sync.Mutex
	watermark
	levels map[uint64]*gate // level -> close-on-satisfy gate
	sweeps uint64           // gate-map scans by Increment, for regression tests
	stats  engineStats      // the guarded tallies only; guarded by mu
	// lockAcquires counts mu acquisitions while SetLockCounting is
	// enabled (the E25 probe — ChanCounter's one mutex plays the role of
	// the engine mutex).
	lockAcquires atomic.Uint64
}

// lock takes the counter mutex through the counting probe.
func (c *ChanCounter) lock() {
	c.mu.Lock()
	if lockCounting.Load() {
		c.lockAcquires.Add(1)
	}
}

// gate is one level's close-on-satisfy channel plus the number of
// goroutines currently parked on it.
type gate struct {
	ch   chan struct{}
	refs int
}

// NewChan returns a ChanCounter with value zero.
func NewChan() *ChanCounter { return new(ChanCounter) }

// Increment implements Interface. Increment(0) leaves the value — and
// therefore every gate — untouched, so it returns without even taking
// the lock; a real increment scans the gate map only when it is
// non-empty, since no gate can be satisfied when none exists. An
// overflowing increment releases the mutex before it panics.
func (c *ChanCounter) Increment(amount uint64) {
	if amount == 0 {
		return
	}
	c.lock()
	old := c.value.Load()
	v := old + amount
	if v < old {
		panic(overflow(&c.mu))
	}
	// Publish the watermark before closing any gate so a fast-path
	// reader that raced past the mutex observes the new value no later
	// than woken waiters do.
	c.value.Store(v)
	c.stats.increments++
	if len(c.levels) != 0 {
		c.sweeps++
		for level, g := range c.levels {
			if level > old && level <= v {
				close(g.ch)
				delete(c.levels, level)
				c.stats.satisfiedLevels++
			}
		}
	}
	c.mu.Unlock()
}

// Check implements Interface. The satisfied case is one atomic
// watermark load — no mutex.
func (c *ChanCounter) Check(level uint64) {
	if c.satisfied(level) {
		return
	}
	g := c.acquire(level, true)
	if g == nil {
		return
	}
	<-g.ch
	c.release(level, g)
}

// CheckContext implements Interface. The gate is consulted before the
// context, so an already-satisfied level wins over an already-cancelled
// context — including the race where satisfaction and cancellation
// arrive together.
func (c *ChanCounter) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		// No waiter will park, so don't build a gate; the value is
		// still consulted first — satisfied beats cancelled.
		if c.satisfied(level) {
			return nil
		}
		return err
	}
	g := c.acquire(level, true)
	if g == nil {
		return nil
	}
	defer c.release(level, g)
	select {
	case <-g.ch:
		return nil
	case <-ctx.Done():
		select {
		case <-g.ch:
			return nil // satisfied concurrently with cancellation: satisfied wins
		default:
			return ctx.Err()
		}
	}
}

// acquire returns the gate to wait on for level with the caller counted
// on it, or nil if the level is already satisfied. suspend marks a
// blocking Check, counted as a suspend or an immediate check; a
// sentinel passes false and counts neither way, as the engine designs'
// enroll does. Every non-nil return must be paired with a release.
func (c *ChanCounter) acquire(level uint64, suspend bool) *gate {
	c.lock()
	defer c.mu.Unlock()
	if level <= c.value.Load() {
		if suspend {
			c.stats.immediateChecks++
		}
		return nil
	}
	if c.levels == nil {
		c.levels = make(map[uint64]*gate)
	}
	g, ok := c.levels[level]
	if !ok {
		g = &gate{ch: make(chan struct{})}
		c.levels[level] = g
		if len(c.levels) > c.stats.peakLevels {
			c.stats.peakLevels = len(c.levels)
		}
	}
	g.refs++
	if suspend {
		c.stats.suspends++
	}
	return g
}

// release drops the caller's claim on g. The last waiter to leave a gate
// that was never satisfied (its map entry still points at g) reclaims the
// entry, so a level abandoned by cancellation costs nothing once its
// waiters are gone. Satisfied gates were already removed by Increment.
func (c *ChanCounter) release(level uint64, g *gate) {
	c.mu.Lock()
	g.refs--
	if g.refs == 0 && c.levels[level] == g {
		delete(c.levels, level)
	}
	c.mu.Unlock()
}

// Reset implements Interface. A live gate means goroutines are still
// parked on the counter, which the paper forbids during Reset. Stats
// are cumulative and survive the reset.
func (c *ChanCounter) Reset() {
	c.lock()
	defer c.mu.Unlock()
	if len(c.levels) != 0 {
		panic("core: Reset called with goroutines waiting on the counter")
	}
	c.value.Store(0)
}

// LiveLevels reports the number of distinct levels currently waited on.
// Cancelled-and-abandoned levels are reclaimed by their last departing
// waiter, so this returns to zero once no goroutine is waiting. For
// tests of the cost model.
func (c *ChanCounter) LiveLevels() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.levels)
}

// Stats implements StatsProvider in the unified schema: one channel
// close per satisfied level, never a broadcast.
func (c *ChanCounter) Stats() Stats {
	c.lock()
	s := c.stats.guarded()
	c.mu.Unlock()
	s.ChannelCloses = s.SatisfiedLevels
	s.ImmediateChecks += c.fastChecks.Load()
	return s
}

// LockAcquires implements LockCounter: mutex acquisitions recorded while
// SetLockCounting was enabled.
func (c *ChanCounter) LockAcquires() uint64 {
	return c.lockAcquires.Load()
}
