package core

import (
	"sync/atomic"
)

// This file is the watch surface (Sentineler) through which every layer
// above the engine reaches a counter: the predicate engine, counterd's
// predicate waits, the derived composites and counter/wait. A
// sentinel is a one-shot hook parked on a level's waitNode exactly like
// a waiter: it holds one count on the node, so its storage cost is the
// paper's cost unit — one node per distinct watched level — and the
// wake path that already exists delivers it. The hook itself is owned
// by the caller (the Linux wait_queue_entry idiom): a Hook embedded in
// the caller's own record carries the chain links and calls the
// record's Fire method, so arming a hook on a level that already has a
// node allocates nothing, and an owner that recycles its records (a
// counterd wait entry, a predicate slot) arms and re-arms for free.
// Sentinel(level, fn) remains as one shared wrapper that allocates a
// fresh hook and its cancel. No machinery is added to the hot paths: a
// counter with no hooks armed executes byte-for-byte the same code as
// before, except for one nil check of the hooks chain inside wakeBatch,
// which runs only for already-satisfied nodes.
//
// The engine-mutex invariants from the waitlist header are unchanged:
//
//   - registration is the design's one enroll step, the same one
//     Check's slow path takes (node creation/linking and value
//     re-check, under the engine mutex or the level's stripe mutex),
//     and the hook is attached under the node's wake lock only AFTER
//     that lock is released — the two are never nested;
//   - hooks are fired by wakeBatch after every lock is released, in
//     the same out-of-lock position as the broadcasts and channel
//     closes;
//   - cancellation drains through the same atomic-count drain as a
//     cancelled waiter, so an abandoned hook reclaims its level's node
//     with the existing cleanup path.

// Sentineler is the watch surface every counter of the module
// implements — each registry design, the facade types, and the remote
// and cluster clients — and the predicate engine watches it as it is.
// Watermark returns a monotone lower bound on the value: it may lag the
// value but never exceeds it and never decreases (in process it is the
// value; a client returns the highest level it has proof of). Sentinel
// arms a one-shot hook that fires when the counter's wake path
// satisfies the node for level. Contract:
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
//
// On the waitlist designs Sentinel is a wrapper over HookArmer that
// allocates a fresh Hook and its cancel per call, so both register
// through the one shared armHook; callers that arm repeatedly own a
// Hook and call ArmHook instead.
type Sentineler interface {
	Watermark() uint64
	Sentinel(level uint64, fn func()) (cancel func() bool, armed bool)
}

// HookArmer is implemented by every waitlist design (every registry
// counter but ChanCounter, which has no engine): ArmHook parks the
// caller-owned hook h on the node for level, under the Sentineler
// contract, and reports false, arming nothing, if level was already
// satisfied. h must be bound (Hook.Bind) and must not be armed: a hook
// may be re-armed once its previous arming fired (from inside its own
// Fire is fine) or was cancelled, but never while that arming may
// still fire or be cancelled from another goroutine. Arming is Check's
// own registration (the design's enroll step, behind a lock-free look
// at the value) minus the suspend, so an arming counts neither as a
// suspend nor as an immediate check. It reuses the level's node when
// one is live, so it allocates nothing then.
type HookArmer interface {
	ArmHook(level uint64, h *Hook) bool
}

// Firer is a Hook's owner: Fire runs once per arming that is not
// cancelled, on the waking goroutine after every engine lock is
// released, under the Sentineler contract for fn (fast, never blocks,
// may be a spurious early kick).
type Firer interface {
	Fire()
}

// Hook is one caller-owned entry in a waitNode's doubly linked hooks
// chain, so a cancel unlinks it in O(1) wherever it sits. Embed it in
// the record that owns the wait, Bind it to that record once, and arm
// it with a HookArmer as often as the ownership rules above allow. The
// chain fields and the flags are guarded by the wake lock of node, the
// node of the current arming, which the arming sets; fire is immutable
// after Bind. The waiter gate an armed hook holds up (ShardedCounter)
// lives on the node, not here: the node records it once for every count
// it holds, hooks and parked waiters alike.
type Hook struct {
	fire       Firer
	prev, next *Hook
	node       *waitNode
	fired      bool // set by wakeBatch while detaching the chain
	cancelled  bool // set by Cancel while unlinking the hook
}

// Bind sets the owner whose Fire the hook runs. Call it once, before
// the first arming.
func (h *Hook) Bind(f Firer) { h.fire = f }

// Cancel disarms the hook's current arming: it reports true if Fire had
// not run and never will for it, false if Fire has run or is about to
// (an increment claimed the level's node: satisfied beats cancelled),
// if the arming was already cancelled, or if the hook was never armed.
// It costs O(1) however many hooks share the level, and any goroutine
// may call it, concurrently with the fire.
func (h *Hook) Cancel() bool {
	n := h.node
	if n == nil {
		return false
	}
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
	n.mu.Unlock()
	n.wl.drain(n)
	return true
}

// fireFunc adapts a plain callback to Firer for the Sentinel wrapper; a
// func value is pointer-shaped, so the conversion allocates nothing.
type fireFunc func()

func (f fireFunc) Fire() { f() }

// sentinel is Sentinel for every waitlist design: a fresh hook bound to
// fn and, when it arms, its Cancel — two allocations, plus the level's
// node when the level had none.
func sentinel(a HookArmer, level uint64, fn func()) (func() bool, bool) {
	h := &Hook{fire: fireFunc(fn)}
	if !a.ArmHook(level, h) {
		return nil, false
	}
	return h.Cancel, true
}

// armHook is ArmHook for every waitlist design: a lock-free look at
// the value, the design's registration step, and the attach. check
// counts the arming as a Check, an immediate check or a suspend: the
// look is the design's satisfied and enroll gets the suspend flag.
// Otherwise the look is Value and the arming counts neither way. It
// links h into the node's chain under the node's wake lock, with no
// registration lock held, and re-checks the node's set flag there: if
// the level was satisfied in the window between the enroll and the
// attach, wakeBatch has already detached whatever hooks it found, so
// h would never fire — armHook drains the count instead (lowering any
// gate it held) and reports not-armed.
//
// h.Cancel loses to a set node even before wakeBatch reaches it: the
// increment that set it owns the node's wake and will fire the hook, so
// Cancel leaves the hook in the chain and reports false.
func armHook(e enroller, level uint64, h *Hook, check bool) bool {
	if check && e.satisfied(level) || !check && level <= e.Value() {
		return false
	}
	n := e.enroll(level, check)
	if n == nil {
		return false
	}
	h.node, h.prev, h.fired, h.cancelled = n, nil, false, false
	n.mu.Lock()
	if n.set.Load() {
		n.mu.Unlock()
		n.wl.drain(n)
		return false
	}
	if n.hooks != nil {
		n.hooks.prev = h
	}
	h.next = n.hooks
	n.hooks = h
	n.mu.Unlock()
	return true
}

// ArmHook implements HookArmer through the shared armHook.
func (c *AtomicCounter) ArmHook(level uint64, h *Hook) bool { return armHook(c, level, h, false) }

// Sentinel implements Sentineler through ArmHook.
func (c *AtomicCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	return sentinel(c, level, fn)
}

// ArmHook implements HookArmer on the sharded design. An armed hook
// holds the waiter gate up — like a parked Check — so every increment
// takes the exact locked path and the hook cannot be missed by a
// fast-path CAS; the fire lowers it before Fire runs (so a re-arm from
// Fire observes gate state consistent with its own registration), and
// so does a successful cancel. An armed hook costs its level's node and
// nothing else — which is all a parked counterd wait costs the engine,
// and a second hook on the same level costs nothing.
func (c *ShardedCounter) ArmHook(level uint64, h *Hook) bool { return armHook(c, level, h, false) }

// CheckHook is ArmHook counted as a Check: a suspend when it arms, an
// immediate check when not. counterd parks each wire Check with it.
func (c *ShardedCounter) CheckHook(level uint64, h *Hook) bool { return armHook(c, level, h, true) }

// Sentinel implements Sentineler through ArmHook: a fresh hook, its
// cancel and, on a fresh level, its level's node.
func (c *ShardedCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	return sentinel(c, level, fn)
}

// ArmHook implements HookArmer through the shared armHook; like Check,
// the flat-combining design folds pending rival deltas before it
// registers (see FCCounter.enroll).
func (c *FCCounter) ArmHook(level uint64, h *Hook) bool { return armHook(c, level, h, false) }

// Sentinel implements Sentineler through ArmHook.
func (c *FCCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	return sentinel(c, level, fn)
}

// Sentinel implements Sentineler on the engineless chan design: the
// hook parks a goroutine on the level's gate, the one implementation
// where a sentinel costs a goroutine rather than a list node — the same
// trade this ablation makes for waiters' cancellation machinery. The
// gate refcount keeps Reset's misuse check and abandoned-level
// reclamation working unchanged.
func (c *ChanCounter) Sentinel(level uint64, fn func()) (func() bool, bool) {
	if level <= c.value.Load() {
		return nil, false // the lock-free look: no lock for a satisfied level
	}
	g := c.acquire(level, false)
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
