package core

import (
	"context"
	"sync/atomic"
)

// This file is the watch surface (Sentineler: Watermark and ArmHook)
// through which every layer above the engine reaches a counter: the
// predicate engine, counterd's predicate waits, the derived composites
// and counter/wait. A sentinel is a one-shot hook parked on a level's
// waitNode exactly like a waiter: it holds one count on the node, so
// its storage cost is the paper's cost unit — one node per distinct
// watched level — and the wake path that already exists delivers it.
// The hook itself is owned by the caller (the Linux wait_queue_entry
// idiom): a Hook embedded in the caller's own record carries the chain
// links and calls the record's Fire method, so arming a hook on a level
// that already has a node allocates nothing, and an owner that recycles
// its records (a counterd wait entry, a predicate slot) arms and
// re-arms for free. Every other counter arms the same Hook: a client
// keeps it in its wait table, the chan design and counter/wait's polled
// fallback park a goroutine for it (ArmGoroutine), and each records
// itself as the arming's site (Hook.ArmedBy), so Hook.Cancel reaches
// whichever armer holds the hook. Sentinel(c, level, fn) is the one
// closure form, a fresh hook and its cancel. No machinery is added to
// the hot paths: a counter with no hooks armed executes byte-for-byte
// the same code as before, except for one nil check of the hooks chain
// inside wakeBatch, which runs only for already-satisfied nodes.
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
// implements — each registry design, the facade types, the remote and
// cluster clients and counter/wait's polled fallback — and the
// predicate engine watches it as it is. Watermark returns a monotone
// lower bound on the value (in process, the value; a client returns the
// highest level it has proof of). ArmHook arms the caller-owned hook h
// to fire when the counter's wake path satisfies level. Contract:
//
//   - false means level was already covered: nothing is armed.
//   - When armed, h's owner's Fire runs once unless a Cancel prevents
//     it, on the waking goroutine after all engine locks are released;
//     it must be fast and must not block.
//   - A fire is a re-evaluation kick, NOT a guarantee that the value
//     reached level: the broadcast ablation wakes its round node on
//     every increment, and a client kicks its hooks when its link
//     drops. Callers re-check and re-arm.
//   - h.Cancel reports true if Fire had not run and never will, false
//     if it has run or is about to: on the waitlist engine once an
//     increment claims the level's node, so a cancel that follows a
//     satisfying increment always loses. A winning Cancel has released
//     the level when it returns; until then an armed hook counts as a
//     suspended waiter for Reset's misuse check.
//   - h must be bound (Hook.Bind) and not armed: it may be re-armed, on
//     any counter, once its arming fired (from inside its own Fire is
//     fine) or was cancelled.
//
// On the waitlist designs an arming is Check's registration minus the
// suspend, so it counts neither as a suspend nor as an immediate check,
// and on a level with a live node it allocates nothing.
type Sentineler interface {
	Watermark() uint64
	ArmHook(level uint64, h *Hook) bool
}

// Firer is a Hook's owner, whose Fire the hook runs under the
// Sentineler contract.
type Firer interface {
	Fire()
}

// Disarmer is the site of a hook's arming, which Hook.Cancel reaches:
// the level's node on the waitlist engine, or an armer outside the
// engine, which records itself with Hook.ArmedBy.
type Disarmer interface {
	DisarmHook(h *Hook) bool
}

// Hook is one caller-owned hook: embed it in the record that owns the
// wait, Bind it to that record once, and arm it on any Sentineler. On
// the waitlist engine it is an entry in its level node's doubly linked
// hooks chain, so a cancel unlinks it in O(1) wherever it sits; the
// chain fields and the flags are guarded by that node's wake lock.
type Hook struct {
	fire       Firer
	prev, next *Hook
	at         Disarmer // the current arming's site
	fired      bool     // set by wakeBatch while detaching the chain
	cancelled  bool     // set by Cancel while unlinking the hook
}

// Bind sets the owner whose Fire the hook runs. Call it once, before
// the first arming.
func (h *Hook) Bind(f Firer) { h.fire = f }

// ArmedBy records d, an armer outside the engine, as the site of the
// arming it has just made. d then runs the hook (Run) once for the
// arming, unless its DisarmHook won.
func (h *Hook) ArmedBy(d Disarmer) { h.at = d }

// Run runs the owner's Fire.
func (h *Hook) Run() { h.fire.Fire() }

// Cancel disarms the hook's current arming under the Sentineler
// contract, reporting false also for a hook never armed or an arming
// already cancelled. Any goroutine may call it, concurrently with the
// fire.
func (h *Hook) Cancel() bool {
	if h.at == nil {
		return false
	}
	return h.at.DisarmHook(h)
}

// DisarmHook is Cancel for a hook armed on n: unless the hook fired,
// was cancelled or n was claimed, it unlinks the hook under n's wake
// lock and drains its count.
func (n *waitNode) DisarmHook(h *Hook) bool {
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

// Stranded is the site of an arming that never fires, such as a hook
// armed on a closed client: cancelling it always succeeds.
var Stranded Disarmer = stranded{}

type stranded struct{}

func (stranded) DisarmHook(*Hook) bool { return true }

// Sentinel is the closure form of ArmHook: it arms fn on c at level
// through a fresh hook and returns that hook's Cancel, two allocations
// beyond what ArmHook costs.
func Sentinel(c Sentineler, level uint64, fn func()) (cancel func() bool, armed bool) {
	h := &funcHook{fn: fn}
	h.Bind(h)
	if !c.ArmHook(level, &h.Hook) {
		return nil, false
	}
	return h.Cancel, true
}

type funcHook struct {
	Hook
	fn func()
}

func (h *funcHook) Fire() { h.fn() }

// ArmGoroutine arms h on a goroutine, for a counter with no engine to
// park it on (ChanCounter, counter/wait's polled fallback). wait blocks
// until the level is reached (true) or ctx is cancelled (false) and
// returns having released its claim on the level; h fires on true
// unless a Cancel won. A winning Cancel cancels ctx and returns once
// wait has, so the level is released by then: wait must never wait for
// a lock the canceller may hold.
func ArmGoroutine(h *Hook, wait func(ctx context.Context) bool) {
	ctx, stop := context.WithCancel(context.Background())
	a := &goArming{stop: stop, left: make(chan struct{})}
	h.at = a
	go func() {
		reached := wait(ctx)
		stop()
		close(a.left)
		if reached && a.state.CompareAndSwap(0, 1) {
			h.fire.Fire()
		}
	}()
}

type goArming struct {
	state atomic.Int32 // 0 armed, 1 fired, 2 cancelled
	stop  context.CancelFunc
	left  chan struct{} // closed once wait has returned
}

func (a *goArming) DisarmHook(*Hook) bool {
	if !a.state.CompareAndSwap(0, 2) {
		return false
	}
	a.stop()
	<-a.left
	return true
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
	h.at, h.prev, h.fired, h.cancelled = n, nil, false, false
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

// ArmHook implements Sentineler through the shared armHook.
func (c *AtomicCounter) ArmHook(level uint64, h *Hook) bool { return armHook(c, level, h, false) }

// ArmHook implements Sentineler on the sharded design. An armed hook
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

// ArmHook implements Sentineler through the shared armHook; like Check,
// the flat-combining design folds pending rival deltas before it
// registers (see FCCounter.enroll).
func (c *FCCounter) ArmHook(level uint64, h *Hook) bool { return armHook(c, level, h, false) }

// ArmHook implements Sentineler on the engineless chan design: the
// hook parks a goroutine on the level's gate (ArmGoroutine), the one
// registry design where a hook costs a goroutine rather than a list
// node — the same trade this ablation makes for waiters' cancellation
// machinery. The gate refcount keeps Reset's misuse check and
// abandoned-level reclamation working unchanged.
func (c *ChanCounter) ArmHook(level uint64, h *Hook) bool {
	if level <= c.value.Load() {
		return false // the lock-free look: no lock for a satisfied level
	}
	g := c.acquire(level, false)
	if g == nil {
		return false
	}
	ArmGoroutine(h, func(ctx context.Context) bool {
		defer c.release(level, g)
		select {
		case <-g.ch:
			return true
		case <-ctx.Done():
			return false
		}
	})
	return true
}
