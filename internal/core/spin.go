package core

import (
	"context"
	"runtime"
	"sync/atomic"
)

// defaultSpins is the number of yield-spin probes SpinCounter makes
// before suspending. Chosen so a check that will be satisfied within a
// few scheduler quanta never touches the mutex or a condition variable.
const defaultSpins = 64

// SpinCounter is a spin-then-block hybrid: Check first polls the value
// with atomic loads (yielding the processor between probes), and only
// suspends on the blocking slow path if the level is still unsatisfied
// after the spin budget. This is the classical HPC waiting strategy for
// synchronization with short expected waits; under long waits it degrades
// gracefully to the reference design (and inherits its out-of-lock wake
// path: a parked SpinCounter waiter drains with an atomic count like any
// other engine waiter). Part of the E11 ablation. Only Check and
// CheckContext spin; every other method is the atomic counter's. So a
// hook (ArmHook) never spins, since there is no caller to
// burn time on, and Stats adds only the probe tally. Spin probes take
// no locks and emit no probe event.
//
// The zero value is a valid counter with value zero.
type SpinCounter struct {
	atomicCounter
	// spins holds the probe budget plus one, so that the zero value
	// still means "default" while an explicit budget of zero (suspend
	// immediately — the right tuning for long expected waits) remains
	// expressible: 0 = default, b+1 = budget b.
	spins atomic.Int64
	// rounds counts yield-spin probes actually made (Stats.SpinRounds).
	rounds stripedUint64
}

// atomicCounter names the AtomicCounter that SpinCounter embeds, so the
// embedding promotes its methods without exporting a field.
type atomicCounter = AtomicCounter

// NewSpin returns a SpinCounter with the default spin budget.
func NewSpin() *SpinCounter { return new(SpinCounter) }

// SetSpins sets the probe budget: n probes before suspending. n == 0
// means no spinning at all — an unsatisfied check suspends immediately —
// and a negative n restores the default budget. It is safe to call
// concurrently with Check/CheckContext on other goroutines: the budget
// is stored atomically and each Check snapshots it once on entry to its
// spin phase, so a mid-flight tune affects only subsequent checks.
func (c *SpinCounter) SetSpins(n int) {
	if n < 0 {
		c.spins.Store(0) // default sentinel
		return
	}
	c.spins.Store(int64(n) + 1)
}

// budget snapshots the current probe budget.
func (c *SpinCounter) budget() int {
	if v := c.spins.Load(); v > 0 {
		return int(v - 1)
	}
	return defaultSpins
}

// Check implements Interface: CheckContext with a context that is never
// cancelled.
func (c *SpinCounter) Check(level uint64) { c.CheckContext(context.Background(), level) }

// CheckContext implements Interface. The spin phase polls the context
// before each probe, always consulting the value first so that an
// already-satisfied level wins over an already-cancelled context; a
// cancelled or exhausted spin hands over to the atomic counter's slow
// path, which takes one last look before reporting a cancellation.
func (c *SpinCounter) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	budget, spun := c.budget(), 0
	for spun < budget && ctx.Err() == nil {
		runtime.Gosched()
		spun++
		if c.satisfied(level) {
			c.rounds.Add(uint64(spun))
			return nil
		}
	}
	if spun > 0 {
		c.rounds.Add(uint64(spun))
	}
	return await(ctx, &c.atomicCounter, level)
}

// Stats implements StatsProvider: the underlying atomic counter's
// collector plus the spin-probe tally.
func (c *SpinCounter) Stats() Stats {
	s := c.atomicCounter.Stats()
	s.SpinRounds = c.rounds.Load()
	return s
}
