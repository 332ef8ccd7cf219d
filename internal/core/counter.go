package core

import (
	"context"
	"fmt"
	"strings"
)

// Counter is the reference monotonic-counter implementation, following
// section 7 of the paper: a mutex protects a nonnegative value and an
// ordered singly-linked list of waiter nodes. Each node represents one
// distinct level on which goroutines are suspended and carries its own
// condition variable, so an Increment wakes exactly the levels it
// satisfies. Storage and the time complexity of Increment and Check are
// proportional to the number of distinct levels with waiters, not to the
// total number of waiting goroutines.
//
// The blocking machinery (suspension, wake-up, cancellation) is the
// shared waitlist engine, which keeps the wake fan-out off the engine
// mutex — Increment unlinks the satisfied levels and broadcasts after
// releasing the lock, and woken waiters drain with an atomic count —
// and also owns the cost-model instrumentation (Stats, stats.go). The
// value is a watermark (waitlist.go), so a satisfied Check is one atomic
// load and no mutex. Counter contributes the sorted-list index, ascending
// by level; satisfied nodes move to the engine's draining record.
//
// The zero value is a valid counter with value zero.
type Counter struct {
	indexed[listIndex, *listIndex]
}

// New returns a counter with value zero. Equivalent to new(Counter); it
// exists for symmetry with the other implementations' constructors.
func New() *Counter { return new(Counter) }

// indexed is the method set of the engine-indexed designs (list, heap
// and broadcast): the waitlist engine, the watermark and a level index
// I that the engine owns, so every registration joins I and every
// Increment pops it under the engine mutex. Each of those designs is
// this base over its index; P is I's pointer type, through which the
// engine reaches the index. A design's promoted method is a
// compiler-generated wrapper that passes the instantiation's dictionary
// to the shared body: Increment's body inlines into it, but Check's and
// CheckContext's do not, so reached through an interface they pay one
// call frame more than a method declared on the design would.
type indexed[I any, P interface {
	*I
	levelIndex
}] struct {
	wl waitlist
	watermark
	index I
}

// Increment implements Interface: the engine's add and release step,
// which pops the levels the new value satisfies off the index.
// Increment(0) is a no-op and returns before touching the lock.
func (c *indexed[I, P]) Increment(amount uint64) {
	if amount == 0 {
		return
	}
	c.wl.increment(&c.watermark, amount)
}

// Check implements Interface: CheckContext with a context that is never
// cancelled, so the caller sleeps on the level's condition variable.
// It repeats CheckContext's two steps rather than calling it, so the
// satisfied case pays no extra frame.
func (c *indexed[I, P]) Check(level uint64) {
	if !c.satisfied(level) {
		await(context.Background(), c, level)
	}
}

// CheckContext implements Interface. The satisfied case is one atomic
// watermark load — no mutex, and consulted before the context, so an
// already-satisfied level wins over an already-cancelled context; only
// an unsatisfied level falls through to the locked registration (await).
// No goroutine is spawned on behalf of the call: cancellation is
// observed by selecting on the node's ready channel, and the last
// cancelled waiter on a level removes it from the index.
func (c *indexed[I, P]) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	return await(ctx, c, level)
}

// enroll implements enroller: the engine's locked re-check and join on
// the index.
func (c *indexed[I, P]) enroll(level uint64, suspend bool) *waitNode {
	return c.wl.enroll(P(&c.index), &c.value, level, suspend)
}

// Reset implements Interface. It panics if any goroutine is suspended on
// the counter, since the paper forbids Reset concurrent with other
// operations. Stats are cumulative and survive the reset.
func (c *indexed[I, P]) Reset() { c.wl.reset(P(&c.index), &c.watermark) }

// Stats implements StatsProvider with the engine's collector, folding in
// the lock-free fast-path checks.
func (c *indexed[I, P]) Stats() Stats { return c.wl.readStats(&c.fastChecks, nil) }

// LockAcquires implements LockCounter: engine-mutex acquisitions
// recorded while SetLockCounting was enabled.
func (c *indexed[I, P]) LockAcquires() uint64 { return c.wl.lockAcquires.Load() }

// SetProbe implements ProbeSetter: f observes increment/suspend/wake
// events until replaced; nil disables the hook.
func (c *indexed[I, P]) SetProbe(f func(Event)) { c.wl.SetProbe(f) }

// ArmHook implements Sentineler through the shared armHook.
func (c *indexed[I, P]) ArmHook(level uint64, h *Hook) bool { return armHook(c, level, h, false) }

// leave deregisters the caller from n with wl.mu already held — the
// simulator's single-threaded counterpart of the engine's drain.
func (c *Counter) leave(n *waitNode) {
	c.wl.leaveLocked(n)
}

// Snapshot is a consistent picture of a counter's internal structure, in
// the exact shape of the paper's Figure 2: the value plus the ordered
// waiting list of (level, count, set) nodes.
type Snapshot struct {
	Value uint64
	Nodes []NodeSnapshot
}

// NodeSnapshot describes one waiter node.
type NodeSnapshot struct {
	Level uint64
	Count int
	Set   bool
}

// String renders the snapshot in the style of Figure 2, e.g.
// "value=7 waiting=[{level=5 count=1 set} {level=9 count=1 not-set}]".
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "value=%d waiting=[", s.Value)
	for i, n := range s.Nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		flag := "not-set"
		if n.Set {
			flag = "set"
		}
		fmt.Fprintf(&b, "{level=%d count=%d %s}", n.Level, n.Count, flag)
	}
	b.WriteByte(']')
	return b.String()
}

// Inspect returns a snapshot of the counter's structure. For tracing and
// testing only (it is how the Figure 2 trace is reproduced); synchronization
// decisions must never be based on it.
//
// Satisfied nodes still draining their waiters come from the engine's
// draining record; their levels are at most the value, so prepending
// them to the live list preserves the figure's ascending order.
func (c *Counter) Inspect() Snapshot {
	c.wl.lock()
	defer c.wl.unlock()
	s := Snapshot{Value: c.value.Load()}
	for _, n := range c.wl.draining {
		if n == nil { // already-retired slot
			continue
		}
		s.Nodes = append(s.Nodes, NodeSnapshot{Level: n.level, Count: int(n.count.Load()), Set: true})
	}
	for n := c.index.head; n != nil; n = n.next {
		s.Nodes = append(s.Nodes, NodeSnapshot{Level: n.level, Count: int(n.count.Load()), Set: false})
	}
	return s
}
