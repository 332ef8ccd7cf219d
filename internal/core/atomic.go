package core

import "context"

// AtomicCounter is the scaling list design: the lock-free watermark fast
// path of the reference counter plus a striped level index (stripes.go),
// so the slow path — Check registration on a not-yet-satisfied level —
// no longer serializes on the engine mutex either. Because the value is
// monotonic, a stale watermark read can only under-estimate it, so a
// satisfied fast-path read is always safe; an unsatisfied read falls
// through to the level's stripe, which re-checks the watermark under the
// stripe mutex before suspending (the Dekker handshake documented in
// stripes.go). This is the ablation quantifying the read side's mutex
// cost (experiments E11 and E25).
//
// The engine mutex survives only on the write side: Increment serializes
// the value update under it, publishes the watermark, and then sweeps
// the stripes out of lock. Wake-ups are issued with no lock held, as
// everywhere in the engine.
//
// The zero value is a valid counter with value zero.
type AtomicCounter struct {
	striped
}

// NewAtomic returns an AtomicCounter with value zero.
func NewAtomic() *AtomicCounter { return new(AtomicCounter) }

// NewAtomicStripes returns an AtomicCounter whose level index has
// exactly n stripes (rounded up to a power of two) instead of the
// stripeCount() default. NewAtomicStripes(1) is the single-index engine
// — one stripe holding one sorted list behind one mutex — which is what
// E25 measures the striped default against.
func NewAtomicStripes(n int) *AtomicCounter {
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	c := new(AtomicCounter)
	c.idx.ensure(size)
	return c
}

// Increment implements Interface. Increment(0) is a no-op and returns
// before touching the lock. A non-waking increment takes the engine
// mutex for the value update and then pays one atomic load per stripe —
// zero stripe locks (the per-stripe minimum gate).
func (c *AtomicCounter) Increment(amount uint64) {
	if amount == 0 {
		return
	}
	// The engine step's watermark store must precede the stripe-minimum
	// loads (collect) for the lost-wake handshake.
	if head := c.idx.collect(c.wl.increment(&c.watermark, amount)); head != nil {
		c.wl.wakeBatch(head)
	}
}

// Check implements Interface: CheckContext with a context that is never
// cancelled, repeating its two steps so the satisfied case pays no
// extra frame.
func (c *AtomicCounter) Check(level uint64) {
	if !c.satisfied(level) {
		await(context.Background(), c, level)
	}
}

// CheckContext implements Interface. The satisfied case is one atomic
// load and no mutex, checked before the context so that an
// already-satisfied level wins over an already-cancelled context; the
// unsatisfied case registers on the level's stripe and never touches
// the engine mutex at all, and its blocking path spawns no goroutine.
func (c *AtomicCounter) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	return await(ctx, c, level)
}

// enroll implements enroller: registration on the level's stripe, which
// re-reads the value under the stripe mutex.
func (c *AtomicCounter) enroll(level uint64, suspend bool) *waitNode {
	return c.idx.register(&c.wl, level, &c.value, nil, suspend)
}

// striped is the half of the method set that the striped designs
// (atomic and fc) share: the watermark, the engine, whose mutex they
// keep only on the write side, and the striped level index, on which
// every registration happens under its level's stripe mutex. Each
// design writes its own Increment and enroll: fc folds its combining
// slots in both.
type striped struct {
	watermark // published before any stripe sweep

	wl  waitlist
	idx stripedList
}

// Reset implements Interface. Stats are cumulative and survive the
// reset.
func (c *striped) Reset() { c.wl.reset(&c.idx, &c.watermark) }

// Stats implements StatsProvider: the engine's collector plus the
// striped registration tallies and the lock-free satisfied-check tally.
// readStats loads the wake-side atomics first, so folding the striped
// satisfied count afterwards keeps Broadcasts <= SatisfiedLevels.
func (c *striped) Stats() Stats {
	s := c.wl.readStats(&c.fastChecks, nil)
	c.idx.foldStats(&s)
	return s
}

// LockAcquires implements LockCounter: engine-mutex plus stripe-mutex
// acquisitions recorded while SetLockCounting was enabled.
func (c *striped) LockAcquires() uint64 {
	return c.wl.lockAcquires.Load() + c.idx.locks.Load()
}

// SetProbe implements ProbeSetter. Fast-path satisfied checks emit no
// event (that path exists to touch nothing shared); increments,
// suspends, and wakes are observed through the engine.
func (c *striped) SetProbe(f func(Event)) { c.wl.SetProbe(f) }
