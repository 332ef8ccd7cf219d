package core

import "context"

// BroadcastCounter is the naive baseline the paper's cost analysis argues
// against: every increment wakes every waiter, and every waiter re-checks
// its own level after every wake. Wake cost is proportional to the total
// number of waiting goroutines (the thundering herd), not to the number of
// satisfied levels. It exists as the comparison point for the E10/E11 cost
// experiments.
//
// On the shared waitlist engine the herd is expressed as a degenerate
// index, roundIndex: a single "round" node that every waiter joins
// regardless of level, satisfied by every increment. A waiter whose
// level is still unsatisfied after a wake joins the next round node and
// sleeps again. The broadcast itself happens out of lock like every
// other wake, but that does not rescue the design: every waiter still
// wakes and relocks the engine mutex to re-check its level, which is
// the O(waiters) cost the per-level designs avoid.
//
// The flattening shows in every tally the engine keeps. In Stats,
// PeakLevels is the peak number of live round nodes (at most 1),
// SatisfiedLevels counts satisfied wake rounds rather than distinct
// levels, and Suspends counts every park, re-parks included, as does a
// probe's EventSuspend. A hook (ArmHook) lands on the round
// node too, so it fires on the first increment after arming whether or
// not the value reached its level — the spurious fire the Sentineler
// contract allows; the predicate layer re-checks and re-arms, which
// reproduces the thundering re-check at the predicate tier.
//
// Even the naive baseline gets the watermark fast path shared by every
// impl — an already-satisfied Check is one atomic load, no mutex — so
// E25's zero-lock assertion holds uniformly and the ablation isolates
// the wake policy, not the read path.
//
// The zero value is a valid counter with value zero.
type BroadcastCounter struct {
	indexed[roundIndex, *roundIndex]
	wakes uint64 // cumulative waiter wake-ups (each re-check after a broadcast)
}

// NewBroadcast returns a BroadcastCounter with value zero.
func NewBroadcast() *BroadcastCounter { return new(BroadcastCounter) }

// roundIndex is BroadcastCounter's levelIndex, which ignores the level
// entirely: every acquire lands on the shared round node, and every
// increment pops it — that is the ablation.
type roundIndex struct {
	round *waitNode // node all current waiters sleep on; nil when none joined since the last increment
}

func (r *roundIndex) acquire(w *waitlist, level uint64) (*waitNode, bool) {
	if r.round == nil {
		r.round = newWaitNode(w, level)
		return r.round, true
	}
	return r.round, false
}

func (r *roundIndex) drop(n *waitNode) {
	if r.round == n {
		r.round = nil
	}
}

// pop hands the round over to release whatever the value: the next
// joiner starts a fresh round.
func (r *roundIndex) pop(uint64) *waitNode {
	n := r.round
	r.round = nil
	return n
}

func (r *roundIndex) empty() bool { return r.round == nil }

// Check implements Interface: CheckContext with a context that is never
// cancelled, so every park sleeps on the round node's condition
// variable.
func (c *BroadcastCounter) Check(level uint64) { c.CheckContext(context.Background(), level) }

// CheckContext implements Interface. The value is consulted before the
// context, so an already-satisfied level wins over an already-cancelled
// context; cancellation is observed by selecting on the round node's
// ready channel — no watcher goroutine. A waiter woken below its level
// re-joins the next round, so Suspends counts every park — the
// thundering-herd cost made visible in the unified schema. This is the
// one waitlist design that does not park through await: its re-join
// happens under the lock it already holds, and counts no immediate
// check.
func (c *BroadcastCounter) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	c.wl.lock()
	if level <= c.value.Load() {
		c.wl.stats.immediateChecks++
		c.wl.unlock()
		return nil
	}
	for level > c.value.Load() {
		if err := ctx.Err(); err != nil {
			c.wl.unlock()
			return err
		}
		n := c.wl.join(&c.index, level, true)
		c.wl.unlock()
		err := c.wl.park(ctx, n)
		c.wl.drain(n)
		c.wl.lock()
		if n.set.Load() {
			c.wakes++
		}
		if err != nil && level > c.value.Load() {
			c.wl.unlock()
			return err
		}
	}
	c.wl.unlock()
	return nil
}

// Wakes reports the cumulative number of waiter wake-ups; with W waiters
// and I increments this grows as O(W*I), the cost the per-level designs
// avoid.
func (c *BroadcastCounter) Wakes() uint64 {
	c.wl.lock()
	defer c.wl.unlock()
	return c.wakes
}
