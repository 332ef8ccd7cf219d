package core

import (
	"sync/atomic"
)

// This file is the narrow sentinel-registration surface the predicate
// layer (internal/predicate) builds on. A sentinel is a one-shot
// callback parked on a level's waitNode exactly like a waiter: it holds
// one count on the node, so its storage cost is the paper's cost unit —
// one node per distinct watched level — and the wake path that already
// exists delivers it. No machinery is added to the hot paths: a counter
// with no sentinels armed executes byte-for-byte the same code as
// before, except for one nil check of the hooks chain inside wakeBatch,
// which runs only for already-satisfied nodes.
//
// The engine-mutex invariants from the waitlist header are unchanged:
//
//   - registration takes the engine mutex only for the join (node
//     creation/linking and value re-check), exactly like Check's slow
//     path, and attaches the hook under the node's wake lock only AFTER
//     the engine mutex is released — the two locks are never nested;
//   - hooks are invoked by wakeBatch after every lock is released, in
//     the same out-of-lock position as the broadcasts and channel
//     closes;
//   - cancellation drains through the same atomic-count drain as a
//     cancelled waiter, so an abandoned sentinel reclaims its level's
//     node with the existing cleanup path.

// Sentineler is implemented by every registry counter: Sentinel arms a
// one-shot hook that fires when the counter's wake path satisfies the
// node for level.
//
// Contract:
//
//   - armed == false means level was already satisfied at registration;
//     fn will never run and there is nothing to cancel (cancel is nil).
//   - When armed, fn runs exactly once, on the waking goroutine, after
//     all engine locks are released. fn must be fast and must not
//     block; anything slow must be handed to another goroutine.
//   - A fire is a re-evaluation kick, NOT a guarantee that the value
//     reached level: implementations with coarser wake granularity
//     (the broadcast ablation wakes its single round node on every
//     increment) fire sentinels spuriously early. Callers re-check and
//     re-arm.
//   - cancel disarms the hook: it reports true if fn had not fired and
//     never will, false if fn has already run or is about to. On the
//     waitlist engine "about to" starts when an increment claims the
//     level's node, before the hook runs: satisfied beats cancelled,
//     so a cancel that follows a satisfying increment in happens-before
//     order always reports false. A cancel costs O(1) on the waitlist
//     engine however many hooks share the level: the hook unlinks
//     itself from a doubly linked chain. An armed sentinel counts as a
//     suspended waiter for Reset's misuse check, so callers must cancel
//     their sentinels before resetting.
type Sentineler interface {
	Sentinel(level uint64, fn func()) (cancel func() bool, armed bool)
}

// sentinelHook is one armed callback in a waitNode's doubly linked
// hooks chain, so a cancel unlinks it in O(1) wherever it sits. All
// fields are guarded by the node's wake lock except fn, which is
// immutable after creation. The waiter gate an armed hook holds up
// (ShardedCounter) lives on the node, not here: every hook on a level
// belongs to one counter, and the hook stays at 32 bytes.
type sentinelHook struct {
	fn         func()
	prev, next *sentinelHook
	fired      bool // set by wakeBatch while detaching the chain
	cancelled  bool // set by cancel while unlinking the hook
}

// joinSentinel registers a sentinel's count on the node for level,
// creating and indexing the node if none is live. Identical to join
// except it is not a suspend in the cost model (no goroutine blocks on
// a sentinel). Called with w.mu held; the caller must already have
// established level > value.
func (w *waitlist) joinSentinel(idx levelIndex, level uint64) *waitNode {
	n, created := idx.acquire(w, level)
	n.count.Add(1)
	if created {
		w.stats.liveLevels++
		if w.stats.liveLevels > w.stats.peakLevels {
			w.stats.peakLevels = w.stats.liveLevels
		}
	}
	return n
}

// satisfiedOnly is the levelIndex stand-in for drains that can only
// ever see a satisfied node; reaching drop on it is a bug.
type satisfiedOnly struct{}

func (satisfiedOnly) acquire(*waitlist, uint64) (*waitNode, bool) {
	panic("core: satisfiedOnly.acquire")
}
func (satisfiedOnly) drop(*waitNode) {
	panic("core: sentinel drain reached drop on a satisfied node")
}

// drainSatisfied drops one count from a node that is known to be
// satisfied (wakeBatch is draining the hooks it detached from it).
// Retirement of a satisfied node never touches the index — the node
// already left it for the draining record — so no index is needed.
func (w *waitlist) drainSatisfied(n *waitNode) {
	w.drain(satisfiedOnly{}, n)
}

// armSentinel attaches fn to n as a one-shot hook, with the engine
// mutex NOT held (the caller released it after joinSentinel). The
// node's set flag is re-checked under the wake lock: if the level was
// satisfied in the window between the join and the attach, wakeBatch
// has already detached whatever hooks it found, so the hook would never
// fire — armSentinel drains the count and reports not-armed instead,
// and the caller re-reads the value (and lowers its own gate). gate is
// the waiter gate the armed hook holds up, or nil; it is recorded on
// the node, where the fire and a successful cancel find it.
//
// The returned cancel loses to a set node even before wakeBatch reaches
// it: the increment that set it owns the node's wake and will fire the
// hook, so cancel leaves the hook in the chain and reports false.
func (w *waitlist) armSentinel(idx levelIndex, n *waitNode, fn func(), gate *atomic.Int32) (func() bool, bool) {
	h := &sentinelHook{fn: fn}
	n.mu.Lock()
	if n.set.Load() {
		n.mu.Unlock()
		w.drain(idx, n)
		return nil, false
	}
	n.gate = gate
	if n.hooks != nil {
		n.hooks.prev = h
	}
	h.next = n.hooks
	n.hooks = h
	n.mu.Unlock()
	cancel := func() bool {
		n.mu.Lock()
		if h.fired || h.cancelled || n.set.Load() {
			n.mu.Unlock()
			return false
		}
		h.cancelled = true
		if h.prev != nil {
			h.prev.next = h.next
		} else {
			n.hooks = h.next
		}
		if h.next != nil {
			h.next.prev = h.prev
		}
		h.prev, h.next = nil, nil
		gate := n.gate
		n.mu.Unlock()
		w.drain(idx, n)
		if gate != nil {
			gate.Add(-1)
		}
		return true
	}
	return cancel, true
}

// Sentinel implements Sentineler on the reference design: the join is
// exactly Check's slow-path registration, minus the suspend.
func (c *Counter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	c.wl.lock()
	if level <= c.value.Load() {
		c.wl.unlock()
		return nil, false
	}
	n := c.wl.joinSentinel(&c.list, level)
	c.wl.unlock()
	return c.wl.armSentinel(&c.list, n, fn, nil)
}

// Sentinel implements Sentineler. The registration is Check's striped
// slow path minus the suspend: the value is re-read under the stripe
// mutex (register), so a not-armed result is accurate at registration
// time, and the engine mutex is never touched.
func (c *AtomicCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	if level <= c.value.Load() {
		return nil, false
	}
	n, done := c.idx.register(&c.wl, level, &c.value, false)
	if done {
		return nil, false
	}
	return c.wl.armSentinel(nil, n, fn, nil)
}

// Sentinel implements Sentineler by delegating to the underlying atomic
// counter; a sentinel never spins (there is no caller to burn time on).
func (c *SpinCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	return c.a.Sentinel(level, fn)
}

// Sentinel implements Sentineler on the heap index.
func (c *HeapCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	c.wl.lock()
	if level <= c.value.Load() {
		c.wl.unlock()
		return nil, false
	}
	n := c.wl.joinSentinel(&c.index, level)
	c.wl.unlock()
	return c.wl.armSentinel(&c.index, n, fn, nil)
}

// Sentinel implements Sentineler on the broadcast ablation. The hook
// lands on the shared round node, which every increment satisfies, so
// it fires on the FIRST increment after arming whether or not the value
// reached level — the spurious-fire case the Sentineler contract
// allows. The predicate layer re-checks and re-arms, which reproduces
// at the predicate tier exactly the thundering re-check this baseline
// exists to measure.
func (c *BroadcastCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	c.wl.lock()
	if level <= c.value.Load() {
		c.wl.unlock()
		return nil, false
	}
	n := c.wl.joinSentinel(c, level)
	c.wl.unlock()
	return c.wl.armSentinel(c, n, fn, nil)
}

// Sentinel implements Sentineler on the sharded design. An armed
// sentinel holds the waiter gate up — like a parked Check — so every
// increment takes the exact locked path and the sentinel cannot be
// missed by a fast-path CAS. The level's node carries the gate: the fire
// lowers it before fn runs (so a re-arm from fn observes gate state
// consistent with its own registration), and so does a successful
// cancel. fn and cancel reach the engine unwrapped, so an armed
// sentinel costs its hook, its cancel closure and its level's node —
// which is all a parked counterd wait costs the engine.
func (c *ShardedCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	c.wl.lock()
	c.gate.Add(1)
	c.flushLocked()
	pub := c.published.Load()
	c.wl.unlock()
	if level <= pub {
		c.gate.Add(-1)
		return nil, false
	}
	n, done := c.idx.register(&c.wl, level, &c.published, false)
	if done {
		c.gate.Add(-1)
		return nil, false
	}
	cancel, armed := c.wl.armSentinel(nil, n, fn, &c.gate)
	if !armed {
		c.gate.Add(-1)
	}
	return cancel, armed
}

// Sentinel implements Sentineler on the flat-combining design. Like
// Check's slow path it opportunistically folds pending rival deltas
// first — they may already satisfy the level — then registers on the
// level's stripe; the stripe re-read keeps the not-armed result
// accurate at registration time.
func (c *FCCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	if level <= c.value.Load() {
		return nil, false
	}
	c.foldPending()
	if level <= c.value.Load() {
		return nil, false
	}
	n, done := c.idx.register(&c.wl, level, &c.value, false)
	if done {
		return nil, false
	}
	return c.wl.armSentinel(nil, n, fn, nil)
}

// Sentinel implements Sentineler on the engineless chan design: the
// hook parks a goroutine on the level's gate, the one implementation
// where a sentinel costs a goroutine rather than a list node — the same
// trade this ablation makes for waiters' cancellation machinery. The
// gate refcount keeps Reset's misuse check and abandoned-level
// reclamation working unchanged.
func (c *ChanCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	g := c.acquireSentinel(level)
	if g == nil {
		return nil, false
	}
	done := make(chan struct{})
	var state atomic.Int32 // 0 armed, 1 fired, 2 cancelled
	go func() {
		select {
		case <-g.ch:
			if state.CompareAndSwap(0, 1) {
				c.release(level, g)
				fn()
				return
			}
			c.release(level, g)
		case <-done:
			c.release(level, g)
		}
	}()
	cancel := func() bool {
		if state.CompareAndSwap(0, 2) {
			close(done)
			return true
		}
		return false
	}
	return cancel, true
}

// The compile-time checks that every registry implementation provides
// Sentinel are in registry.go next to the StatsProvider/ProbeSetter
// ones; the goroutine-backed fallback for counters outside the registry
// lives in counter/wait, next to the public combinators that need it.
