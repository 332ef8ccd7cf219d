// Package predicate generalizes Check(level) — the monotone predicate
// "value >= L" over one counter — to waits on monotone predicates over
// several counters: a + b >= L, min(a, b) >= L, k of n counters at a
// threshold. It is the engine behind the public counter/wait package
// and the derived-layer composites (Quorum, latch combinators).
//
// The mechanism reuses the counters' own per-level waitlists instead of
// polling or per-waiter bookkeeping: a Cond arms one *sentinel* hook
// per watched counter, parked at that counter's frontier — the lowest
// level at which the predicate could possibly flip given everything
// known about the other counters. When a sentinel fires, the Cond
// re-evaluates, re-parks sentinels at the new frontiers, and releases
// its waiters only once the predicate holds. N goroutines waiting on
// one Cond therefore cost O(watched counters) parked nodes — one per
// counter, shared by all N — not O(N × counters), which is the paper's
// storage argument carried up one tier (AutoSynch's
// wake-exactly-the-right-waiters property, with the waitlist node as the
// predicate tag). A Cond watches every counter as it is, through
// core.Sentineler: bounds are its Watermark reads, and the sentinel is
// a core.Hook embedded in the Cond's slot for that counter and re-armed
// in place through ArmHook, so on an in-process engine counter moving a
// frontier allocates nothing but a fresh level's node.
//
// Frontier correctness is the heart of it. For a sum a+b >= L it is NOT
// enough to park b's sentinel at L - value(a): if both counters then
// advance partway (a to 3 and b to 7 with L = 10), the sum flips with
// neither frontier reached and every waiter sleeps forever. Sum
// frontiers instead share the remaining gap g = L - sum by pigeonhole:
// every counter's sentinel parks at value(i) + ceil(g/n). If the
// predicate flips, the total gain is at least g, so some counter gained
// at least ceil(g/n) and that sentinel fires — no increment pattern can
// flip the predicate silently.
// Threshold predicates (min, k-of-n) have exact frontiers: the
// unsatisfied counters' own threshold levels.
//
// Re-evaluation is cheap, so it runs on the signaller: a sentinel fire
// marks its slot spent and, when the Cond's lock is free, evaluates
// right there on the incrementing goroutine, under no counter lock; only
// when the lock is held (a Wait, a Poll or another kick is evaluating)
// does it hand the kick to a short-lived goroutine, so a hook never
// blocks. A pass re-arms only what moved — a spent sentinel, or one
// whose frontier changed (AutoSynch's re-evaluate-where-the-tag-moved) —
// so a kick on a k-of-n threshold whose flip is still out of reach
// re-arms nothing. ActiveMonitor's hand-off of every evaluation to
// another thread pays only with idle cores to run it on. Between fires a
// Cond holds zero goroutines.
//
// A predicate is one value, Pred, with one Kind and one Validate for
// every layer: counter/wait's Spec and the wire's OpWaitFor frame carry
// its fields. Every Cond is built by Renew (NewCond renews a zero one),
// so every Cond copies the levels and counters it is given. counterd
// arms a Cond with a caller-owned core.Firer (Arm, Disarm), as it arms
// an engine hook (ArmHook, Hook.Cancel), and once the wait is answered
// it renews the Cond in place for a later predicate rather than
// building a new one, so a registration reuses the Cond's slots,
// hooks, scratch and firer storage. A Cond may be renewed only when
// quiescent: settled or abandoned, with no waiter, no firer, and no
// sentinel fire still on its way — a slot whose cancel lost to its fire
// stays outstanding until that fire lands, even on a settled Cond,
// because the engine holds its hook detached until then.
//
// Monotonicity does the rest of the safety argument: every counter's
// value only grows, so Holds can never flip back, frontiers only move
// up, and a stale Watermark read only under-estimates — exactly the
// properties that make Check race-free make WaitFor race-free.
package predicate

import "fmt"

// Kind discriminates a predicate's shape. It is the predicate tier's
// one numbering: counter/wait's Spec and the wire's OpWaitFor frame
// carry it as it is, and it is as wide as the frame's uvarint, so
// Validate sees the kind a peer sent, never a narrowed one.
type Kind uint64

const (
	// KindSum is "the watched counters' values sum to at least Target".
	KindSum Kind = iota + 1
	// KindThreshold is "at least K of the watched counters have reached
	// their own Levels[i]": min (K = n), any (K = 1) and quorum.
	KindThreshold
)

// String returns the kind's wire-stable lowercase name.
func (k Kind) String() string {
	switch k {
	case KindSum:
		return "sum"
	case KindThreshold:
		return "threshold"
	}
	return fmt.Sprintf("kind(%d)", uint64(k))
}

// Pred is a monotone predicate over an ordered set of counters: if it
// holds for values v it holds for any pointwise-greater values. K is as
// wide as the wire's field for the reason Kind is.
type Pred struct {
	Kind   Kind
	Levels []uint64 // KindThreshold: one level per counter, in coordinate order
	K      uint64   // KindThreshold: how many counters must reach their level
	Target uint64   // KindSum: the bar the values' sum must reach
}

// SumAtLeast returns the predicate "the values of all watched counters
// sum to at least target". The sum saturates at the uint64 maximum, so
// overflow can only make the predicate hold earlier, never wrap.
func SumAtLeast(target uint64) Pred { return Pred{Kind: KindSum, Target: target} }

// Thresholds returns the predicate "at least k of the watched counters
// have reached their respective levels[i]" (min is k = len(levels), any
// is k = 1). It panics unless 1 <= k <= len(levels), and its Cond must
// watch len(levels) counters.
func Thresholds(levels []uint64, k int) Pred {
	p := Pred{Kind: KindThreshold, Levels: levels, K: uint64(k)}
	if err := p.Validate(len(levels)); err != nil {
		panic(err.Error())
	}
	return p
}

// Validate reports why p cannot watch n counters, or nil if it can: a
// known kind over at least one counter and, for a threshold, one level
// per counter and 1 <= K <= n.
func (p Pred) Validate(n int) error {
	if n < 1 {
		return fmt.Errorf("predicate: no counters to watch")
	}
	switch p.Kind {
	case KindSum:
		return nil
	case KindThreshold:
		if len(p.Levels) != n || p.K < 1 || p.K > uint64(n) {
			return fmt.Errorf("predicate: threshold k=%d over %d levels for %d counters", p.K, len(p.Levels), n)
		}
		return nil
	}
	return fmt.Errorf("predicate: unknown predicate kind %d", p.Kind)
}

// Holds reports whether the predicate is satisfied at vals.
func (p Pred) Holds(vals []uint64) bool {
	if p.Kind == KindSum {
		return satSum(vals) >= p.Target
	}
	var reached uint64
	for i, v := range vals {
		if v >= p.Levels[i] {
			reached++
			if reached >= p.K {
				return true
			}
		}
	}
	return false
}

// Frontiers fills out[i] with the level counter i's sentinel should park
// at, given the bounds vals (for which Holds returned false). Contract:
// out[i] <= vals[i] means counter i needs no sentinel; and for any
// pointwise advance of vals that makes Holds true, at least one i must
// have advanced to out[i] — the no-lost-wake property.
func (p Pred) Frontiers(vals, out []uint64) {
	if p.Kind == KindSum {
		// Holds is false, so the sum is exact (no saturation) and below
		// target. Every counter's frontier is its value plus ceil(g/n):
		// if the sum flips, the total gain is at least g, and n gains all
		// below ceil(g/n) would total at most n*(ceil(g/n)-1) < g — so at
		// least one counter reaches its frontier and its sentinel fires.
		// (A floor share would break this: a counter with share zero gets
		// no sentinel yet can absorb the entire gap by itself.) Since
		// ceil(g/n) <= g <= target - vals[i] for every i, no frontier can
		// exceed target, hence no overflow.
		g := p.Target - satSum(vals)
		n := uint64(len(vals))
		share := g / n
		if g%n != 0 {
			share++
		}
		for i := range vals {
			out[i] = vals[i] + share
		}
		return
	}
	// Exact frontiers: an unsatisfied counter flips its own coordinate
	// precisely at its threshold; a satisfied one can never need to move
	// again (out[i] = vals[i] marks it sentinel-free). Fewer than K
	// coordinates are satisfied when this runs, so at least one sentinel
	// is always armed — the K-th arrival must cross one.
	for i, v := range vals {
		if v >= p.Levels[i] {
			out[i] = v
		} else {
			out[i] = p.Levels[i]
		}
	}
}

func satSum(vals []uint64) uint64 {
	var s uint64
	for _, v := range vals {
		if s+v < s {
			return ^uint64(0)
		}
		s += v
	}
	return s
}
