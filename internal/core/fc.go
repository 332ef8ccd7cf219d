package core

import (
	"context"
	"runtime"
	"sync/atomic"
)

// FCCounter is the reference list design with a flat-combining increment
// path for the contended regime: an Increment that finds the engine
// mutex taken does not queue on it — it publishes its delta into a
// flat-combining slot (fcSlots in waitlist.go) and the current lock
// holder folds every published delta into the value before releasing,
// waking whatever the combined total satisfies. Rivals therefore stop
// round-tripping through the scheduler's mutex queue: a burst of k
// contended increments costs one critical section instead of k lock
// handoffs.
//
// This attacks a different regime than ShardedCounter. Sharding wins
// while NOBODY waits (increments bypass the lock entirely) but drops to
// the plain locked path the moment a waiter registers; flat combining
// is indifferent to waiters — the combiner wakes them as part of its
// fold — so it keeps helping exactly where sharding stops, on the
// contended increment/Check-registration path. See docs/PATTERNS.md.
//
// The switch is at the constructor level: only counters built as
// FCCounter route increments through the slots; the other
// implementations' paths are byte-for-byte unchanged, and even here the
// uncontended path is the plain locked path (TryLock succeeds, fold
// finds no pending deltas) plus one empty-array check.
//
// Value excludes deltas still published in slots: they belong to
// Increment calls that have not returned, so excluding them preserves
// linearizability. Reset therefore finds no delta pending in a slot,
// since it must not run concurrently with any other operation, and
// resets only the value. In Stats, FastPathIncrements counts increments
// folded from the slots (they skipped the mutex queue — the combining
// analogue of the sharded fast path) and Flushes counts folds that took
// at least one. Every Increment emits its own EventIncrement when it
// returns — a folded delta's event fires from the publisher once it
// observes the fold — so a probe's event counts match call counts
// whichever path an increment took.
//
// The zero value is a valid counter with value zero.
type FCCounter struct {
	// striped's watermark is stored under wl.mu, before any stripe
	// sweep. Waiter registration happens on the level's stripe, not
	// under wl.mu, so Check registrations no longer queue behind
	// combining folds. A fold stores the combined value first and
	// sweeps the stripes after releasing wl.mu — the fold-then-read
	// ordering the stripe Dekker handshake requires.
	striped
	slots fcSlots

	// spin holds the publisher spin budgets packed as
	// (active<<16|yields)+1, so the zero value still means "default"
	// while explicit zero budgets stay expressible — the same sentinel
	// encoding as SpinCounter.SetSpins. Tuned by SetSpin.
	spin atomic.Int64
}

// NewFC returns a flat-combining counter with value zero. This is the
// constructor-level switch: New() and the other constructors never
// touch the combining machinery.
func NewFC() *FCCounter { return new(FCCounter) }

// SetSpin sets the publisher spin budgets: active busy reloads, then
// yields Gosched rounds, before a publisher parks on the engine mutex
// (see Increment). Negative values restore the defaults. Safe to call
// concurrently with Increment on other goroutines: the budgets are
// stored atomically and each publisher snapshots them once per claim,
// so a mid-flight tune affects only subsequent increments. Mirrors
// SpinCounter.SetSpins.
func (c *FCCounter) SetSpin(active, yields int) {
	if active < 0 || yields < 0 {
		c.spin.Store(0) // default sentinel
		return
	}
	if active > 1<<30 {
		active = 1 << 30
	}
	if yields > 1<<15 {
		yields = 1 << 15
	}
	c.spin.Store((int64(active)<<16 | int64(yields)) + 1)
}

// spinBudget snapshots the current (active, yields) budgets.
func (c *FCCounter) spinBudget() (active, yields int) {
	if v := c.spin.Load(); v > 0 {
		v--
		return int(v >> 16), int(v & (1<<16 - 1))
	}
	return fcSpinActive, fcSpinYields
}

// Increment implements Interface. Uncontended it is exactly the locked
// list path (TryLock in place of Lock); contended it publishes the delta
// and briefly spins until a combiner folds it or the caller wins the
// lock and combines itself, parking on the mutex only once the spin
// budget shows the combiner is not running. Increment(0) is a no-op.
func (c *FCCounter) Increment(amount uint64) {
	if amount == 0 {
		return
	}
	if c.wl.tryLock() {
		c.addLocked(amount)
		c.wl.emit(EventIncrement, amount)
		return
	}
	s, token := c.slots.claim(amount)
	if s == nil {
		// Slots exhausted (or amount too large to pack, or first-ever
		// contention before the array exists): the plain blocking path.
		c.wl.lock()
		c.addLocked(amount)
		c.wl.emit(EventIncrement, amount)
		return
	}
	active, yields := c.spinBudget()
	for i := 0; ; i++ {
		if s.v.Load() != token {
			// A combiner freed our exclusive claim — and it does that only
			// AFTER storing the folded value (the two-phase fold), so from
			// here Value() reflects our delta; the combiner's stripe sweep
			// covers any level it satisfied.
			c.wl.emit(EventIncrement, amount)
			return
		}
		if c.wl.tryLock() {
			// We became the combiner: fold everything still pending —
			// our own delta included, unless a previous combiner already
			// took it (then the fold is the rivals' work, which is the
			// whole point).
			c.addLocked(0)
			c.wl.emit(EventIncrement, amount)
			return
		}
		switch {
		case i < active:
			// Busy reload: on a multiprocessor the combiner is running
			// right now and the fold lands within a few loads.
		case i < active+yields:
			// Give the combiner the processor — it may share ours.
			runtime.Gosched()
		default:
			// The combiner is not progressing (oversubscribed host,
			// preempted holder). Spinning any longer burns whole
			// timeslices while keeping every rival runnable; parking on
			// the mutex lets the scheduler serialize the storm, and when
			// the lock finally arrives addLocked(0) folds our own slot
			// if no combiner beat us to it.
			c.wl.lock()
			c.addLocked(0)
			c.wl.emit(EventIncrement, amount)
			return
		}
	}
}

const (
	// fcSpinActive bounds the busy reloads a publisher spends waiting for
	// a running combiner; fcSpinYields bounds the Gosched rounds after
	// that. Past both, the publisher parks on the engine mutex — see the
	// comment at the fallback. These are the SetSpin defaults, re-tuned
	// against the PR 8 -procs 1,2,4 sweep (EXPERIMENTS.md E23 notes):
	// small on purpose — a running combiner folds within a few loads,
	// and anything slower means the combiner lost its processor, which
	// spinning cannot fix; on a single-proc host the active phase never
	// helps, so the yield budget does the work there.
	fcSpinActive = 32
	fcSpinYields = 4
)

// ensureSlotsLocked allocates the combining array on first need. The
// stripe count is captured exactly once, here, and sizes BOTH of the
// counter's striped structures — the combining slots and the fast-check
// stats cells — mirroring ShardedCounter.cells, so a GOMAXPROCS change
// mid-run can never leave the two disagreeing about the stripe space.
// Called with wl.mu held. The nil check comes first so the steady state
// never evaluates stripeCount() — runtime.GOMAXPROCS(0) takes the
// scheduler lock, which would double the cost of every locked increment.
func (c *FCCounter) ensureSlotsLocked() {
	if c.slots.slots.Load() == nil {
		size := stripeCount()
		c.fastChecks.ensure(size)
		c.idx.ensure(size)
		c.slots.ensureLocked(size)
	}
}

// addLocked is the combiner: with wl.mu held it folds every published
// delta plus the caller's own amount into the value, frees the
// collected slots, releases the mutex, and then sweeps the stripes and
// wakes whatever the combined total satisfied. The fold is two-phase
// (see fcSlots): the slots are freed only after the value store, so a
// publisher that observes its slot freed — its signal to return from
// Increment — is guaranteed Value() already reflects its delta; the
// satisfied waiters are covered by the stripe sweep, whose
// store-watermark-then-load-minima ordering (the value store happens
// under the mutex, the minima loads after) is the increment half of the
// stripes.go handshake. The overflow check releases the mutex before
// panicking, like the engine's increment, so a host that recovers the
// panic is left with a usable counter — and it fires before the slots
// are freed, so collected rival deltas stay published rather than being
// discarded while their publishers report success.
func (c *FCCounter) addLocked(amount uint64) {
	c.ensureSlotsLocked()
	folded, count := c.slots.collectLocked()
	v := c.value.Load()
	nv := v + amount
	if nv < v || nv+folded < nv {
		panic(overflow(&c.wl.mu))
	}
	nv += folded
	if nv != v {
		c.value.Store(nv)
	}
	if amount > 0 {
		c.wl.stats.increments++
	}
	if count > 0 {
		c.wl.stats.increments += count
		c.wl.stats.fastPathIncs += count
		c.wl.stats.flushes++
		c.slots.releaseLocked()
	}
	c.wl.unlock()
	if nv == v {
		return
	}
	if head := c.idx.collect(nv); head != nil {
		c.wl.wakeBatch(head)
	}
}

// foldPending opportunistically combines pending deltas — the helping
// fold enroll performs on its way to registering a Check or a hook.
// TryLock, not Lock: if the mutex is taken, a combiner is (or will be)
// folding already, and queueing behind it would put registration back
// on the engine mutex.
func (c *FCCounter) foldPending() {
	if c.slots.slots.Load() != nil && c.wl.tryLock() {
		c.addLocked(0)
	}
}

// Check implements Interface: CheckContext with a context that is never
// cancelled, repeating its two steps so the satisfied case pays no
// extra frame.
func (c *FCCounter) Check(level uint64) {
	if !c.satisfied(level) {
		await(context.Background(), c, level)
	}
}

// CheckContext implements Interface. The fast path is AtomicCounter's: a
// stale read can only under-estimate the monotone value, so a satisfied
// read is safe without the lock, and it is checked before the context so
// an already-satisfied level wins over an already-cancelled context. The
// blocking path selects on the node's ready channel, spawning no
// goroutine.
func (c *FCCounter) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	return await(ctx, c, level)
}

// enroll implements enroller. It folds pending rival deltas first
// (fold-then-read: the re-load below happens after any fold it
// performed) — they may already satisfy the level, and a lock holder
// that combines is what keeps publishers' spins short — then registers
// on the level's stripe, never queueing on the engine mutex.
func (c *FCCounter) enroll(level uint64, suspend bool) *waitNode {
	c.foldPending()
	if level <= c.value.Load() {
		if suspend {
			c.fastChecks.Add(1)
		}
		return nil
	}
	return c.idx.register(&c.wl, level, &c.value, nil, suspend)
}
