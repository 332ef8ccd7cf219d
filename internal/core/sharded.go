package core

import (
	"context"
	"runtime"
	"sync/atomic"
)

// ShardedCounter makes the write path scale with cores: while nobody is
// waiting, an Increment is a single compare-and-swap on one cell, so
// concurrent incrementers never serialize on a mutex. An uncontended
// counter has one cell, its base; it stripes on its first contended
// CAS, the first fast-path CAS on the base that fails, and from then on
// an Increment lands on one of GOMAXPROCS cache-padded shard cells, so
// concurrent incrementers touch disjoint cache lines. The moment a
// Check/CheckContext caller registers as a waiter, an atomic waiter gate
// flips, the base and shard residues are flushed into the published
// value under the engine mutex, and every subsequent Increment takes the
// exact locked path through the shared waitlist engine — so wake-ups are
// race-free and all cancellation semantics (satisfied beats cancelled,
// no watcher goroutines, abandoned levels reclaimed) are inherited from
// the engine unchanged. When the last waiter leaves, the gate drops and
// the lock-free fast path resumes.
//
// This is the SNZI/LongAdder-style answer to the write-heavy regime: the
// paper's section 7 cost model prices operations by distinct waited-on
// levels, but a single-mutex Increment still pays full serialization per
// update even when nobody is waiting at all. Gating the striped fast
// path on "are there waiters?" keeps the exact semantics only while they
// are needed, and LongAdder's base rule — stripe only once a CAS on the
// base fails — keeps an idle or single-writer counter at its struct
// alone: 288 B at any GOMAXPROCS, where a striped one holds 0.7 KB at
// GOMAXPROCS 1 and 26 KB at 64.
//
// Reads (Value, the Check fast path) sum the published value plus the
// base and shard residues. A stale sum can only under-estimate the true
// value — cells and the published value are monotone between flushes —
// so a satisfied fast-path read is always safe, the same argument as
// AtomicCounter's. A seqlock version around flushes keeps concurrent
// sums from ever observing a residue twice or a mid-flush tear.
//
// Each cell, the base included, packs an increment count (low 16 bits)
// next to its residue (high 48), so the same CAS that absorbs a
// fast-path increment also counts it — Stats.FastPathIncrements is exact
// with no second atomic on the hot path. A cell whose count or residue
// reaches its cap diverts that increment through the locked path, which
// folds every cell into the published value first.
//
// Overflow: shard stripes are chosen by a stack-address hash, and Go
// moves goroutine stacks when they grow, so a goroutine's stripe can
// change over its lifetime — no per-shard check can bound any one
// goroutine's contribution. The guarantee is instead at the fold points:
// a cell's residue is capped well below wrapping (overflowing increments
// divert to the locked path), and every fold of residues into the
// published value — flush, Value, the Check fast path — goes through
// checkedAdd, which panics if the true value would exceed the uint64
// range. Once the published value itself comes within one cell's reach
// of that range, the gate's overflow bit closes the fast path for good
// (until a Reset), so the overflowing Increment is the one that panics.
// Either way the counter never silently wraps.
//
// The zero value is a valid counter with value zero; the shard array is
// allocated when the counter stripes.
type ShardedCounter struct {
	// published is the flushed portion of the value: everything the
	// locked path has ever folded in. True value = published + base and
	// shard residues. Mutated only with wl.mu held.
	published atomic.Uint64
	// flushSeq is a seqlock version: odd while a flush (or Reset) is
	// moving residue between shards and published. Readers retry across
	// it so sums never tear or double-count.
	flushSeq atomic.Uint64
	// gate counts registered waiters and armed hooks in its low bits and
	// carries the overflow-guard flag in gateOverflowBit. Nonzero diverts
	// Increment onto the exact locked path. The count is raised under
	// wl.mu by enroll (before its flush) and lowered atomically by drain,
	// once per count on a node this counter's stripes created (each
	// records the gate), so the wake fan-out never funnels through wl.mu
	// just to drop the gate; the overflow bit tracks the published value
	// and only changes under wl.mu.
	gate atomic.Int32
	// base is the cell every fast-path increment lands on until the
	// counter stripes: the same packed residue|count word as a shard
	// cell, folded like one.
	base atomic.Uint64

	shards atomic.Pointer[[]shardCell] // allocated on the first failed CAS on base, power-of-two length

	wl waitlist
	// idx is the striped level index (stripes.go): waiter registration
	// happens on the level's stripe, not under wl.mu, so concurrent
	// Check registrations at different levels never contend. The engine
	// mutex keeps the write side — gate raising, residue flushes, the
	// published-value store.
	idx stripedList

	// fastChecks counts satisfied lock-free checks (Stats.ImmediateChecks).
	fastChecks stripedUint64
}

// Cell layout: residue<<cellCountBits | count. The count saturating at
// 16 bits and the residue capped at 2^47 both divert to the locked
// path, so the packed CAS can never wrap either half.
const (
	cellCountBits  = 16
	cellCountMask  = 1<<cellCountBits - 1
	cellResidueCap = uint64(1) << 47
	// cellPackedCap is cellResidueCap in packed form: a cell whose word
	// would reach it holds a residue at the cap. Fits uint64 (2^63).
	cellPackedCap = cellResidueCap << cellCountBits
)

const (
	// gateOverflowBit is set in gate while the published value is above
	// overflowWatermark, closing the fast path so checkedAdd on the
	// locked path can panic on the exact overflowing Increment. Far above
	// any plausible waiter count, so the two halves never interfere.
	gateOverflowBit = 1 << 30
	// overflowWatermark leaves room for one cell's worth of residue plus
	// one fast-path amount (each < cellResidueCap): while published is at
	// or below it, a single cell cannot carry the true value past the
	// uint64 range, so the fast path needs no per-increment check.
	overflowWatermark = ^uint64(0) - (uint64(2) << 47)
)

// shardCell is one stripe of pending increments (packed residue+count).
// Padded to two cache lines so neighbouring cells never false-share (and
// the adjacent-line prefetcher does not couple them).
type shardCell struct {
	v atomic.Uint64
	_ [120]byte
}

// NewSharded returns a ShardedCounter with value zero.
func NewSharded() *ShardedCounter { return new(ShardedCounter) }

// cells returns the shard array, allocating it when the counter
// stripes. The stripe count is captured once per counter and sizes BOTH
// of its striped arrays, so a GOMAXPROCS change mid-run can never leave
// them disagreeing about the stripe space: the fast-check stats cells
// hold the capture, made here or earlier by contended satisfied checks
// (stripedUint64.Add), and the shard cells adopt their length. It takes
// no lock, so a satisfied check that stripes stays lock-free; racing
// allocators agree on the winner via CompareAndSwap. Every lookup masks
// by len-1 of the array it loaded, so indexing stays in range.
func (c *ShardedCounter) cells() []shardCell {
	if p := c.shards.Load(); p != nil {
		return *p
	}
	c.fastChecks.ensure(stripeCount())
	fresh := make([]shardCell, len(*c.fastChecks.cells.Load()))
	c.shards.CompareAndSwap(nil, &fresh)
	return *c.shards.Load()
}

// cell returns the word a fast-path increment lands on: the base until
// the counter stripes, then the caller's shard cell.
func (c *ShardedCounter) cell() *atomic.Uint64 {
	if p := c.shards.Load(); p != nil {
		return &(*p)[stripeIndex(uint64(len(*p)-1))].v
	}
	return &c.base
}

// Increment implements Interface. With no waiters registered it is one
// CAS: on the base, or, once the counter has striped, on a private cache
// line. With waiters (or a full cell, or an amount too large for a
// cell) it is exactly the AtomicCounter locked path plus a residue
// flush. Increment(0) is a no-op.
func (c *ShardedCounter) Increment(amount uint64) {
	if amount == 0 {
		return
	}
	if c.gate.Load() == 0 && amount < cellResidueCap {
		s := c.cell()
		// One packed add bumps residue and count together: with the count
		// below its mask there is no carry between the halves, and keeping
		// the word under cellPackedCap-add keeps the residue under its cap.
		add := amount<<cellCountBits | 1
		for {
			old := s.Load()
			if old&cellCountMask == cellCountMask || old >= cellPackedCap-add {
				break // cell full: fold through the locked path
			}
			if !s.CompareAndSwap(old, old+add) {
				if s == &c.base {
					c.cells() // contention: stripe, and retry on our own cell
					s = c.cell()
				}
				continue
			}
			// Dekker-style recheck. A waiter orders gate.Add(1) before its
			// flush reads the cells; we order the cell CAS before this
			// load. Both are sequentially consistent atomics, so either the
			// waiter's flush saw our residue, or this load sees the gate up
			// and we fold and wake under the lock ourselves. No increment
			// can land in a cell and leave a satisfied waiter sleeping. A
			// freshly striped cell is no exception: the shard array's
			// pointer store precedes our CAS, so a flush ordered after
			// this load finds the array.
			if c.gate.Load() != 0 {
				c.wl.lock()
				c.flushLocked()
				v := c.published.Load()
				c.wl.unlock()
				if head := c.idx.collect(v); head != nil {
					c.wl.wakeBatch(head)
				}
			}
			c.wl.emit(EventIncrement, amount)
			return
		}
	}
	c.wl.lock()
	c.flushLocked()
	v := c.published.Load()
	if v+amount < v {
		// Release the engine before the programming-error panic: a host
		// that recovers it (internal/server turns overflow into a wire
		// error) must be left with a usable counter, not a held mutex.
		c.wl.unlock()
		panic("core: counter value overflow")
	}
	v += amount
	// The published store (inside storePublishedLocked) is the watermark
	// half of the stripe handshake: it precedes the stripe-minimum loads
	// in collect, so a registration the sweep misses is guaranteed to see
	// the new value on its own re-load.
	c.storePublishedLocked(v)
	c.wl.stats.increments++
	c.wl.unlock()
	head := c.idx.collect(v)
	c.wl.emit(EventIncrement, amount)
	if head != nil {
		c.wl.wakeBatch(head)
	}
}

// storePublishedLocked stores v as the published value and keeps the
// gate's overflow bit in sync: once v is within one cell's reach of the
// uint64 range, every Increment must take the locked path so checkedAdd
// can panic on the exact overflowing call; Reset lowers the bit again.
// Called with wl.mu held.
func (c *ShardedCounter) storePublishedLocked(v uint64) {
	c.published.Store(v)
	guarded := c.gate.Load()&gateOverflowBit != 0
	if v > overflowWatermark && !guarded {
		c.gate.Add(gateOverflowBit)
	} else if v <= overflowWatermark && guarded {
		c.gate.Add(-gateOverflowBit)
	}
}

// flushLocked folds the base and every shard residue into the published
// value and every cell count into the fast-path tally. Called with wl.mu
// held. The seqlock goes odd while residue is in flight between a cell
// and published, so lock-free sums retry instead of missing (or
// double-counting) the moving portion. An unstriped counter with an
// empty base has nothing to fold, so a locked Increment on a counter
// whose waiters parked before any fast-path increment skips the
// seqlock: an increment that lands on the base after the load below
// re-checks the gate and flushes itself (the Dekker recheck in
// Increment).
func (c *ShardedCounter) flushLocked() {
	p := c.shards.Load()
	if p == nil && c.base.Load() == 0 {
		return
	}
	c.wl.stats.flushes++
	c.flushSeq.Add(1)
	v := c.foldLocked(&c.base, c.published.Load())
	if p != nil {
		for i := range *p {
			v = c.foldLocked(&(*p)[i].v, v)
		}
	}
	c.storePublishedLocked(v)
	c.flushSeq.Add(1)
}

// foldLocked empties one cell, adding its residue to v and its count to
// the fast-path tally, and returns the new v. The fold is checked before
// the cell is emptied: one that would pass the uint64 range publishes
// what was already folded, closes the seqlock and releases the engine
// before the overflow panic, so the true value (published plus
// residues) is unchanged and a caller that recovers the panic —
// internal/server does — keeps a usable counter. Called with wl.mu held
// inside flushLocked's seqlock window.
func (c *ShardedCounter) foldLocked(s *atomic.Uint64, v uint64) uint64 {
	for {
		old := s.Load()
		if old == 0 {
			return v
		}
		r := old >> cellCountBits
		if v+r < v {
			c.storePublishedLocked(v)
			c.flushSeq.Add(1)
			panic(overflow(&c.wl.mu))
		}
		if s.CompareAndSwap(old, 0) {
			c.wl.stats.fastPathIncs += old & cellCountMask
			return v + r
		}
	}
}

// sum returns published + base and shard residues, retrying across
// flushes. A completed sum is at least the true value at its start and
// at most the true value at its end, so values returned to any single
// observer are monotone.
func (c *ShardedCounter) sum() uint64 {
	for {
		s1 := c.flushSeq.Load()
		if s1&1 == 1 {
			runtime.Gosched()
			continue
		}
		v := checkedAdd(c.published.Load(), c.base.Load()>>cellCountBits)
		if p := c.shards.Load(); p != nil {
			for i := range *p {
				v = checkedAdd(v, (*p)[i].v.Load()>>cellCountBits)
			}
		}
		if c.flushSeq.Load() == s1 {
			return v
		}
		runtime.Gosched()
	}
}

// Check implements Interface: CheckContext with a context that is never
// cancelled, repeating its two steps so the satisfied case pays no
// extra frame. The look is satisfied's, spelled out: satisfied is too
// large to inline.
func (c *ShardedCounter) Check(level uint64) {
	if level <= c.published.Load() || level <= c.sum() {
		c.fastChecks.Add(1)
		return
	}
	await(context.Background(), c, level)
}

// CheckContext implements Interface. The fast path is entirely
// lock-free: a stale sum only under-estimates the monotone value, so a
// satisfied read is safe, and it is consulted before the context, so an
// already-satisfied level wins over an already-cancelled context. An
// unsatisfied level raises the gate and re-checks (enroll); the
// blocking path selects on the node's ready channel, spawning no
// goroutine.
func (c *ShardedCounter) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	return await(ctx, c, level)
}

// satisfied is the lock-free watermark look (enroller): the published
// value first, then the full sum with the cell residues.
func (c *ShardedCounter) satisfied(level uint64) bool {
	if level <= c.published.Load() || level <= c.sum() {
		c.fastChecks.Add(1)
		return true
	}
	return false
}

// enroll implements enroller. It raises the gate under the engine mutex
// before anything else: from there every Increment either lands under
// this mutex or — if it raced past the gate into a shard — re-flushes
// under the mutex itself, so the flush below plus the stripe handshake
// cannot miss a satisfying update: any residue already parked in a cell
// is folded here, and any later flush's published store precedes its
// stripe sweep, which the registration arms itself against. The gate
// the caller raised is handed to the node's count, which drain lowers;
// only when the flush already covers the level is it lowered here.
func (c *ShardedCounter) enroll(level uint64, suspend bool) *waitNode {
	c.wl.lock()
	c.gate.Add(1)
	c.flushLocked()
	pub := c.published.Load()
	c.wl.unlock()
	if level <= pub {
		c.gate.Add(-1)
		if suspend {
			c.fastChecks.Add(1)
		}
		return nil
	}
	return c.idx.register(&c.wl, level, &c.published, &c.gate, suspend)
}

// Reset implements Interface. Stats are cumulative and survive the
// reset: cell counts are folded into the fast-path tally before the
// residues are discarded.
func (c *ShardedCounter) Reset() {
	c.wl.lockIdle(&c.idx)
	defer c.wl.unlock()
	c.flushSeq.Add(1)
	c.wl.stats.fastPathIncs += c.base.Swap(0) & cellCountMask
	if p := c.shards.Load(); p != nil {
		for i := range *p {
			c.wl.stats.fastPathIncs += (*p)[i].v.Swap(0) & cellCountMask
		}
	}
	c.storePublishedLocked(0)
	c.flushSeq.Add(1)
}

// Value implements Interface, for inspection and testing only, and
// Watermark implements Sentineler: both are the full sum.
func (c *ShardedCounter) Value() uint64     { return c.sum() }
func (c *ShardedCounter) Watermark() uint64 { return c.sum() }

// Stats implements StatsProvider: the engine's collector, whose
// fast-path tallies the flushes keep, plus the striped registration
// tallies. Increments reports locked plus fast-path increments.
func (c *ShardedCounter) Stats() Stats {
	s := c.wl.readStats(&c.fastChecks, c.cellCounts)
	c.idx.foldStats(&s)
	s.Increments += s.FastPathIncrements
	return s
}

// cellCounts adds the counts still packed in the base and shard cells
// to the flushed tally. Called with wl.mu held, the only hold under
// which cells are emptied, so FastPathIncrements is exact even before
// any flush.
func (c *ShardedCounter) cellCounts(s *Stats) {
	s.FastPathIncrements += c.base.Load() & cellCountMask
	if p := c.shards.Load(); p != nil {
		for i := range *p {
			s.FastPathIncrements += (*p)[i].v.Load() & cellCountMask
		}
	}
}

// LockAcquires implements LockCounter: engine-mutex plus stripe-mutex
// acquisitions recorded while SetLockCounting was enabled.
func (c *ShardedCounter) LockAcquires() uint64 {
	return c.wl.lockAcquires.Load() + c.idx.locks.Load()
}

// SetProbe implements ProbeSetter. Fast-path increments emit
// EventIncrement like locked ones; satisfied fast-path checks emit no
// event.
func (c *ShardedCounter) SetProbe(f func(Event)) {
	c.wl.SetProbe(f)
}
