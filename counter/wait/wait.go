// Package wait builds blocking waits on monotone predicates over
// counters: a sum crossing a target, a minimum clearing a bar, k of n
// counters reaching a threshold. It is the public face of
// internal/predicate; see docs/PATTERNS.md ("Predicate waits") for the
// design and docs.
//
// Each combinator returns a *Cond — a one-shot shared condition any
// number of goroutines can Wait on (directly or through
// counter.WaitFor). The Cond parks one sentinel hook per watched
// counter at a frontier level on that counter's own waitlist, so N
// waiters on one Cond cost O(watched counters) parked nodes, not
// O(N × counters), and an increment that cannot flip the predicate
// wakes nobody. Like a Check, predicates are monotone: once a Cond is
// satisfied it stays satisfied, and a Cond must not span a Reset of a
// watched counter.
//
// Every counter this module ships — the facade types, everything
// counter.Open returns, and counter/remote's and counter/cluster's
// counters — exposes Watermark and ArmHook, the watch surface the
// predicate engine takes as it is, arming each Cond slot's own hook in
// place, so it is watched at zero ongoing cost. Only a foreign
// counter.Interface without that surface goes through polled, a
// goroutine-per-sentinel fallback on CheckContext.
package wait

import (
	"context"
	"sync/atomic"
	"time"

	"monotonic/counter"
	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// Cond is a one-shot condition over one or more counters that becomes
// (and stays) satisfied once its predicate holds. Any number of
// goroutines may Wait on one Cond; all are released together. A Cond
// that is never waited on costs nothing, and one whose waiters all
// cancel leaves no trace on its counters.
type Cond struct {
	pc   predicate.Cond
	spec Spec
}

// Spec returns the Cond's predicate descriptor — the canonical
// serializable form the combinator recorded when it built the Cond.
func (c *Cond) Spec() Spec { return c.spec }

// newCond builds the Cond for spec, the only thing a combinator
// builds: one object, holding its predicate engine Cond by value, whose
// predicate is the Spec's own. The engine copies the levels and the
// counters, so the counters are gathered in stack storage that covers
// up to four without an allocation. Evaluation is routed server-side
// when possible: if the spec is wire-encodable and every counter
// nominates the same SpecHost, the Cond arms one registration with that
// host instead of per-counter sentinels (asking again if a registration
// dies, and falling back to sentinels once the host refuses — see
// predicate.External). Otherwise evaluation is classic client-side
// sentinels.
func newCond(spec Spec) *Cond {
	var buf [4]core.Sentineler
	cs := buf[:0]
	for _, c := range spec.Counters {
		cs = append(cs, adapt(c))
	}
	c := &Cond{spec: spec}
	if host, ok := spec.commonHost(); ok {
		c.pc.InitExternal(spec.pred(), func(fire func(satisfied bool)) (func() bool, bool) {
			return host.ArmSpec(spec, fire)
		}, cs...)
	} else {
		c.pc.Renew(spec.pred(), cs...)
	}
	return c
}

// Wait blocks until the predicate holds or ctx is cancelled, making
// *Cond a counter.Waitable. A satisfied predicate beats a cancelled
// context, exactly like CheckContext for a single level.
func (c *Cond) Wait(ctx context.Context) error { return c.pc.Wait(ctx) }

// WaitTimeout is Wait bounded by a timeout, reporting whether the
// predicate held in time. A satisfied predicate beats an expired
// deadline: with a zero or negative d, WaitTimeout still reports true
// when the predicate already holds (it polls without blocking).
func (c *Cond) WaitTimeout(d time.Duration) bool {
	if d <= 0 {
		return c.pc.Poll()
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.pc.Wait(ctx) == nil
}

// Holds reports whether the predicate holds right now, settling the
// Cond (and releasing any waiters) if it does. It never blocks and
// never arms sentinels.
func (c *Cond) Holds() bool { return c.pc.Poll() }

// Done returns a channel closed once the predicate has been observed to
// hold. Done does not itself drive evaluation — pair it with a Wait,
// Holds, or WaitTimeout somewhere; it exists for use in selects.
func (c *Cond) Done() <-chan struct{} { return c.pc.Done() }

// Stats is a snapshot of a Cond's mechanism counters — how many
// sentinel fires, registrations, and frontier re-parks the predicate
// machinery has paid. Arms scales with watched counters and frontier
// moves, never with the number of waiters. It is the predicate engine's
// CondStats; External reports evaluation parked server-side (one
// registration), and Hooks reads 0, since a combinator's Cond arms no
// firers.
type Stats = predicate.CondStats

// Stats returns a snapshot of the Cond's mechanism counters.
func (c *Cond) Stats() Stats { return c.pc.Stats() }

// The Cond combinators satisfy counter.Waitable.
var _ counter.Waitable = (*Cond)(nil)

// SumExpr is the sum of a fixed set of counters, ready to be compared
// against a target. Built by Sum.
type SumExpr struct{ cs []counter.Interface }

// Sum begins a predicate over the sum of the given counters' values.
func Sum(cs ...counter.Interface) SumExpr { return SumExpr{cs: cs} }

// AtLeast returns the condition "the counters' values sum to at least
// target". The sum saturates rather than wrapping, so overflow can only
// make the condition hold earlier.
func (s SumExpr) AtLeast(target uint64) *Cond {
	return newCond(Spec{Kind: KindSum, Counters: s.cs, Target: target})
}

// MinExpr is the minimum of a fixed set of counters, ready to be
// compared against a level. Built by Min.
type MinExpr struct{ cs []counter.Interface }

// Min begins a predicate over the minimum of the given counters'
// values.
func Min(cs ...counter.Interface) MinExpr { return MinExpr{cs: cs} }

// AtLeast returns the condition "every counter's value is at least
// level" — a join: it holds once the slowest counter arrives.
func (m MinExpr) AtLeast(level uint64) *Cond { return KOfN(m.cs, len(m.cs), level) }

// AtLeast returns the condition "c's value is at least level" — the
// one-counter degenerate case, equivalent to a Check(level) but
// shareable, pollable, and composable via counter.WaitFor.
func AtLeast(c counter.Interface, level uint64) *Cond {
	return Min(c).AtLeast(level)
}

// KOfN returns the condition "at least k of the counters have reached
// threshold" — the quorum wait. k must be between 1 and len(cs);
// k = len(cs) is Min(...).AtLeast(threshold), k = 1 is an any-of wait.
func KOfN(cs []counter.Interface, k int, threshold uint64) *Cond {
	levels := make([]uint64, len(cs))
	for i := range levels {
		levels[i] = threshold
	}
	return newCond(Spec{Kind: KindThreshold, Counters: cs, Levels: levels, K: k})
}

// adapt views one public counter as the predicate engine's watch
// surface: as it is when it has one, else through the goroutine-backed
// polled fallback.
func adapt(c counter.Interface) core.Sentineler {
	if sc, ok := c.(core.Sentineler); ok {
		return sc
	}
	return &polled{c: c}
}

// polled adapts a foreign counter.Interface with no watch surface:
// each armed hook is a goroutine suspended in CheckContext at the
// frontier level (core.ArmGoroutine) — the same node-per-level cost
// inside the counter, plus one goroutine per watched counter while
// armed. The watermark is the highest level this adapter has observed
// satisfied; it lags the true value but is monotone, which is all the
// predicate engine requires. One visible consequence: Holds and
// zero-timeout WaitTimeout read the watermark without probing, so over
// fallback-adapted counters they can under-report until a Wait has
// driven a probe. The module's own counters are exact.
type polled struct {
	c  counter.Interface
	wm atomic.Uint64
}

func (p *polled) Watermark() uint64 { return p.wm.Load() }

// raise lifts the watermark to at least level.
func (p *polled) raise(level uint64) {
	for {
		cur := p.wm.Load()
		if level <= cur || p.wm.CompareAndSwap(cur, level) {
			return
		}
	}
}

// ArmHook arms h on a goroutine suspended in the foreign counter's
// CheckContext. A winning cancel returns once that goroutine has left
// CheckContext, so the counter no longer holds the level and a Reset
// right after it works. The cancel runs under the Cond's lock, which
// the goroutine never takes (the slot's Fire only tries it, and runs
// only when no cancel won), so the wait cannot deadlock.
func (p *polled) ArmHook(level uint64, h *core.Hook) bool {
	// A zero-timeout wait is the Interface's only non-blocking probe: a
	// satisfied level beats an expired deadline, so true here means the
	// value already covers level and no hook is needed.
	if level <= p.wm.Load() || p.c.WaitTimeout(level, 0) {
		p.raise(level)
		return false
	}
	core.ArmGoroutine(h, func(ctx context.Context) bool {
		if p.c.CheckContext(ctx, level) != nil {
			return false
		}
		// The level was reached (possibly racing a cancel — a satisfied
		// level beats a cancelled context), so the watermark advances
		// whether or not the hook fires.
		p.raise(level)
		return true
	})
	return true
}
