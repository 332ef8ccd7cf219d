package counter

import (
	"context"
	"time"

	"monotonic/internal/core"
)

// coreImpl constrains the facade to pointer types that implement the
// full internal counter contract. Every implementation in the core
// registry qualifies; probes are optional (ChanCounter has no engine to
// hook) and are routed through a type assertion in SetProbe.
type coreImpl[T any] interface {
	*T
	core.Interface
	core.StatsProvider
	core.Sentineler
}

// facade is the one wrapper every public counter type embeds: it holds
// the core implementation by value (so the zero value of the outer type
// is a ready-to-use counter, with no constructor and no indirection)
// and adapts the internal contract to the public Interface. Exposing a
// new in-process implementation is a type declaration embedding this
// struct plus its godoc — about ten lines (see Counter and Sharded).
//
// Deliberately NOT exported: the public surface is the named types and
// Interface; the wrapper is how they stay in lockstep.
type facade[T any, P coreImpl[T]] struct {
	c T
}

func (f *facade[T, P]) impl() P { return P(&f.c) }

// Increment atomically increases the counter's value by amount, waking
// every goroutine suspended on a level the new value satisfies.
// Increment(0) is a no-op. Increment panics if the value would overflow
// uint64, since wrap-around would violate monotonicity; the overflowing
// Increment leaves the value unchanged and the counter usable, so a
// caller that recovers the panic may go on using it.
func (f *facade[T, P]) Increment(amount uint64) { f.impl().Increment(amount) }

// Check suspends the calling goroutine until the counter's value is at
// least level. If the value already satisfies level, Check returns
// immediately. Because the value is monotonic, once Check(level) would
// pass it passes forever: there is no race to observe a transient state.
func (f *facade[T, P]) Check(level uint64) { f.impl().Check(level) }

// CheckContext is Check with cancellation: it returns nil once the value
// reaches level, or ctx.Err() if the context is cancelled first. An
// already-satisfied level wins over an already-cancelled context, and
// cancellation does not perturb the counter or spawn any goroutine; see
// the package documentation's cancellation semantics. This is an
// extension beyond the paper.
func (f *facade[T, P]) CheckContext(ctx context.Context, level uint64) error {
	return f.impl().CheckContext(ctx, level)
}

// WaitTimeout is Check bounded by a timeout, reporting whether the level
// was reached. A satisfied level beats an expired deadline: even with a
// zero or negative timeout, WaitTimeout reports true when the value
// already satisfies level. An extension beyond the paper.
func (f *facade[T, P]) WaitTimeout(level uint64, d time.Duration) bool {
	return core.WaitTimeout(f.impl(), level, d)
}

// Reset sets the value back to zero so the counter can be reused between
// phases of an algorithm. Per the paper (section 2), Reset must not be
// called concurrently with any other operation on the counter; it panics
// if goroutines are suspended on the counter. Reset is a convenience,
// not a synchronization operation.
func (f *facade[T, P]) Reset() { f.impl().Reset() }

// Stats returns the counter's cumulative cost statistics.
func (f *facade[T, P]) Stats() Stats { return f.impl().Stats() }

// Watermark returns a level the counter is known to have reached: a
// monotone lower bound on the value (for in-process counters, the exact
// current value). Unlike an instantaneous value read — which this
// package deliberately does not offer — a watermark can only be used
// the monotone way: "at least this much has happened", never "exactly
// this much is true right now". With ArmHook it is the watch surface
// the predicate layer takes as it is (counter/wait evaluates
// multi-counter predicates over watermarks), and it serves tracing.
func (f *facade[T, P]) Watermark() uint64 { return f.impl().Watermark() }

// ArmHook arms the caller-owned hook h to fire when the counter's wake
// path satisfies level, parked on the counter's own per-level waitlist
// like a suspended Check — the registration surface counter/wait
// builds predicate waits on. It reports false, arming nothing, when
// level is already satisfied. When armed, h's owner's Fire runs once,
// on the waking goroutine, and must not block; h.Cancel reports whether
// it prevented that, and an armed hook counts as a suspended waiter for
// Reset's misuse check. Fires may be spuriously early, so callers
// re-check and re-arm, which allocates nothing on a level another
// waiter holds. Most code should use counter/wait instead.
func (f *facade[T, P]) ArmHook(level uint64, h *Hook) bool { return f.impl().ArmHook(level, h) }

// SetProbe installs fn as the counter's event hook: it observes
// increment/suspend/wake events until replaced, and nil disables it.
// When disabled the hook costs one atomic load per operation; fn is
// never invoked while the counter's locks are held, so it may itself
// call Stats. Probes are for tracing and metrics — synchronization
// decisions must never be based on them. Implementations without an
// engine-side hook (the chan ablation) ignore probes.
func (f *facade[T, P]) SetProbe(fn func(Event)) {
	if ps, ok := any(f.impl()).(core.ProbeSetter); ok {
		ps.SetProbe(fn)
	}
}
