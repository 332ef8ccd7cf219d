package core

import (
	"sync"
	"sync/atomic"
)

// This file is the striped level index: the waitlist's registration side
// split into stripeCount() hash-striped sub-engines so concurrent
// Check/ArmHook registrations at different levels never contend on one
// mutex. It is the read-side counterpart of the write-side striping
// already in ShardedCounter — and the follow-up the PR 6 scaling matrix
// called for: with the watermark fast path handling satisfied checks
// lock-free, the registration slow path was the last place readers
// serialized on the engine mutex.
//
// Division of labour against waitlist.go: the engine keeps everything
// wake-side (per-node wake locks, wakeBatch, sentinel hook firing, the
// drain protocol) byte-for-byte unchanged — a stripe-owned node wakes
// and drains exactly like an engine-owned one. What moves here is the
// registration side: each stripe owns a mutex, a sorted listIndex, a
// draining record, and an atomic minimum armed level. A node created by
// a stripe carries a home pointer, which is how the shared drain path
// (waitlist.drain) routes its retirement back to the stripe instead of
// the engine mutex.
//
// The lost-wake argument, striped. The single-index engine prevents the
// register-vs-satisfy race by doing both under one mutex. Here the two
// sides never share a lock; the protocol is a Dekker handshake through
// two seq-cst atomics, the value watermark and the per-stripe minimum:
//
//   - register (under the stripe mutex): link the node, publish the
//     stripe minimum (min.Store, if the new level lowers it), THEN load
//     the watermark. If the watermark already covers the level, the
//     registrant satisfies its own node and wakes it — it does not park.
//   - increment (after publishing the new value): store the watermark,
//     THEN load each stripe's minimum, locking and sweeping only the
//     stripes whose minimum the new value covers.
//
// Both sides store before they load, and sync/atomic operations are
// sequentially consistent, so at least one side observes the other: if
// the incrementer's min load misses the registration, the registrant's
// watermark load sees the new value (and self-satisfies); if the
// registrant's watermark load misses the increment, the incrementer's
// min load sees the armed stripe (and sweeps it, finding the node under
// the stripe mutex). A non-waking increment therefore touches zero
// stripe locks — it pays one atomic min load per stripe — and a parked
// waiter can never be stranded across a stripe boundary.
//
// The stripe minimum is exact under the stripe mutex (it always equals
// the head of the sorted per-stripe list, or minArmedNone when the list
// is empty) and is re-derived after every list mutation, so it can go
// stale only in the harmless direction: an incrementer acting on a
// just-lowered value sweeps a stripe that turns out empty.

// minArmedNone is the stripe minimum while no node is armed. A real
// level can equal it (^0), in which case an increment at ^0 sweeps the
// stripe whether or not it is armed — a spurious lock at the overflow
// boundary, never a missed one.
const minArmedNone = ^uint64(0)

// stripe is one registration sub-engine. The header is padded to two
// cache lines (see stripes_test.go's audit) so neighbouring stripes'
// mutexes and minimums never false-share — the entire point is that
// registrations on different stripes proceed without touching a common
// line.
type stripe struct {
	owner *stripedList
	mu    sync.Mutex
	list  listIndex
	// draining and drainLive mirror waitlist.draining for nodes
	// satisfied out of this stripe; guarded by mu. Retired slots go nil
	// so drainIdx stays valid (see waitlist.removeDraining).
	draining  []*waitNode
	drainLive int
	// min is the lowest armed level in this stripe, minArmedNone when
	// empty. Mutated only under mu; loaded lock-free by increments
	// deciding whether to sweep. The register side stores it BEFORE
	// loading the watermark — that ordering is the lost-wake handshake.
	min atomic.Uint64

	_ [64]byte // pad the header to 128 bytes, clear of the next stripe
}

// stripedList is the striped level index used by the scaling
// implementations (AtomicCounter, ShardedCounter, FCCounter). The
// reference Counter and the index ablations (heap, broadcast) keep
// their single engine-mutex index: they are the baselines the striping
// is measured against, and the Figure 2 machinery (Inspect, Sim)
// depends on the reference counter's exact single-list structure.
type stripedList struct {
	stripes atomic.Pointer[[]stripe]

	// Registration-side tallies. They live here, as atomics, because
	// registration no longer happens under the engine mutex where
	// engineStats' locked fields are maintained; the owning counter's
	// Stats() folds them into the same schema. satisfied is bumped
	// under a stripe mutex BEFORE the node is woken, so loading the
	// wake-side atomics first (readStats' discipline) still yields
	// Broadcasts <= SatisfiedLevels in every snapshot.
	suspends  atomic.Uint64 // registrations that went on to park
	immediate atomic.Uint64 // registrations satisfied during the re-check
	satisfied atomic.Uint64 // nodes satisfied out of stripe lists
	live      atomic.Int64  // armed nodes across all stripes
	peak      atomic.Int64  // high-water mark of live
	// locks counts stripe-mutex acquisitions while SetLockCounting is
	// enabled; folded into LockAcquires next to the engine mutex's own
	// count so E25's zero-lock assertion covers both tiers.
	locks atomic.Uint64
}

// ensure allocates the stripe array with the given size (a power of
// two) if none exists yet, so the owning counter can size all its
// striped structures from one stripeCount capture (the
// TestStripeCountCapturedOnce discipline). First allocation wins.
func (sl *stripedList) ensure(size int) {
	if sl.stripes.Load() != nil {
		return
	}
	fresh := make([]stripe, size)
	for i := range fresh {
		fresh[i].owner = sl
		fresh[i].min.Store(minArmedNone)
	}
	sl.stripes.CompareAndSwap(nil, &fresh)
}

// arr returns the stripe array, allocating it on first use — the first
// registration — for owners (AtomicCounter, ShardedCounter) that have no
// earlier capture point.
func (sl *stripedList) arr() []stripe {
	if p := sl.stripes.Load(); p != nil {
		return *p
	}
	sl.ensure(stripeCount())
	return *sl.stripes.Load()
}

// stripeFor hashes a level to its stripe. The mapping must be
// deterministic per level — waiters on one level must coalesce onto one
// node — so it hashes the level itself, unlike stripeIndex's
// per-goroutine spreading.
func (sl *stripedList) stripeFor(level uint64) *stripe {
	s := sl.arr()
	h := level * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return &s[h&uint64(len(s)-1)]
}

// lock takes the stripe mutex, counting the acquisition while lock
// counting is enabled (the probe behind E25's zero-lock assertion).
func (s *stripe) lock() {
	s.mu.Lock()
	if lockCounting.Load() {
		s.owner.locks.Add(1)
	}
}

// syncMinLocked re-derives the stripe minimum from the sorted list
// head. Called with s.mu held after every list mutation.
func (s *stripe) syncMinLocked() {
	if h := s.list.head; h != nil {
		s.min.Store(h.level)
	} else {
		s.min.Store(minArmedNone)
	}
}

// register is the striped designs' registration step (their enroll):
// the caller observed level > watermark on the lock-free fast path and
// now registers one count on level's stripe. v is the owning counter's
// published watermark (its atomic value), re-loaded under the stripe
// mutex after the node is linked and the stripe minimum stored — the
// register half of the Dekker handshake in the file comment. gate is
// the counter's waiter gate or nil; a node the stripe creates records
// it, and the caller must already have raised it for this count, which
// drain lowers.
//
// If the re-load shows the level satisfied, register satisfies the
// stripe's whole covered prefix itself (doing the racing increment's
// sweep early), wakes it, drains its own count and returns nil: the
// caller does not park, and — when suspend is set — the call is an
// immediate check in the cost model. Otherwise the caller parks on the
// returned node (a suspend when suspend is set; hooks pass false and
// count neither way).
func (sl *stripedList) register(w *waitlist, level uint64, v *atomic.Uint64, gate *atomic.Int32, suspend bool) *waitNode {
	s := sl.stripeFor(level)
	s.lock()
	n, created := s.list.acquire(w, level)
	if created {
		n.home, n.gate = s, gate
		if level < s.min.Load() {
			s.min.Store(level)
		}
		l := sl.live.Add(1)
		for {
			p := sl.peak.Load()
			if l <= p || sl.peak.CompareAndSwap(p, l) {
				break
			}
		}
	}
	n.count.Add(1)
	if value := v.Load(); level <= value {
		// Satisfied in the registration window: sweep the covered
		// prefix (our node included — level <= value) and wake it, so
		// waiters that parked on these nodes earlier are released even
		// if the racing increment's own sweep missed them.
		head := s.list.pop(value)
		for sn := head; sn != nil; sn = sn.next {
			sl.satisfyLocked(s, sn)
		}
		s.syncMinLocked()
		s.mu.Unlock()
		if suspend {
			sl.immediate.Add(1)
		}
		w.wakeBatch(head)
		w.drain(n) // our own count: home routes it to the stripe, and it lowers the gate
		return nil
	}
	if suspend {
		sl.suspends.Add(1)
	}
	s.mu.Unlock()
	return n
}

// satisfyLocked is satisfyLocked for a stripe-owned node: marks it set
// and moves it to the stripe's draining record. Called with s.mu held,
// after the node left the stripe list.
func (sl *stripedList) satisfyLocked(s *stripe, n *waitNode) {
	n.set.Store(true)
	n.drainIdx = int32(len(s.draining))
	s.draining = append(s.draining, n)
	s.drainLive++
	sl.satisfied.Add(1)
	sl.live.Add(-1)
}

// collect is the increment-side sweep: having published the new value v
// as the watermark, the incrementer walks the stripe minimums and locks
// only the stripes the value covers, unlinking each one's satisfied
// prefix. The chains are concatenated and returned for the caller to
// hand to wakeBatch with no stripe lock held — the same out-of-lock
// wake discipline as the single-index engine. A non-waking increment
// pays one atomic load per stripe and takes zero locks.
func (sl *stripedList) collect(v uint64) *waitNode {
	p := sl.stripes.Load()
	if p == nil {
		return nil
	}
	var head, tail *waitNode
	for i := range *p {
		s := &(*p)[i]
		if s.min.Load() > v {
			continue
		}
		s.lock()
		h := s.list.pop(v)
		for n := h; n != nil; n = n.next {
			sl.satisfyLocked(s, n)
		}
		s.syncMinLocked()
		s.mu.Unlock()
		if h != nil {
			if tail == nil {
				head = h
			} else {
				tail.next = h
			}
			for tail = h; tail.next != nil; tail = tail.next {
			}
		}
	}
	return head
}

// retire is cleanupLocked for a stripe-owned node: the last drainer
// routes here (via waitNode.home) instead of the engine mutex. The
// count re-check under the stripe mutex plus the drained flag keep
// retirement idempotent against concurrent re-joins, exactly like the
// engine path.
func (sl *stripedList) retire(s *stripe, n *waitNode) {
	s.lock()
	if n.drained || n.count.Load() != 0 {
		s.mu.Unlock()
		return
	}
	n.drained = true
	if n.set.Load() {
		s.draining[n.drainIdx] = nil
		s.drainLive--
		if s.drainLive == 0 {
			s.draining = s.draining[:0]
		}
	} else {
		s.list.drop(n)
		sl.live.Add(-1)
		s.syncMinLocked()
	}
	s.mu.Unlock()
}

// empty reports whether no stripe holds an armed node or a draining
// waiter — the striped index's half of Reset's misuse check (lockIdle).
func (sl *stripedList) empty() bool {
	p := sl.stripes.Load()
	if p == nil {
		return true
	}
	for i := range *p {
		s := &(*p)[i]
		s.lock()
		e := s.drainLive == 0 && s.list.empty()
		s.mu.Unlock()
		if !e {
			return false
		}
	}
	return true
}

// foldStats merges the registration-side tallies into an engine
// snapshot. The caller must have loaded the wake-side atomics before
// calling (readStats' ordering), so satisfied — bumped before any wake
// — still dominates the wake tallies in the merged snapshot.
func (sl *stripedList) foldStats(s *Stats) {
	s.Suspends += sl.suspends.Load()
	s.ImmediateChecks += sl.immediate.Load()
	s.SatisfiedLevels += sl.satisfied.Load()
	if peak := int(sl.peak.Load()); peak > s.PeakLevels {
		s.PeakLevels = peak
	}
}
