package counter

import (
	"context"
	"fmt"
	"strings"
	"time"

	"monotonic/internal/core"
)

// Interface is the one contract every counter in this module satisfies:
// the in-process implementations behind this package (*Counter,
// *Sharded, and everything Open returns) and the networked client in
// counter/remote. Code written against Interface works unchanged whether
// the counter lives in the same process or behind a counterd server —
// the monotonicity rules below are exactly what makes the remote case
// retry-safe, so the contract does not weaken over the wire.
type Interface interface {
	// Increment atomically increases the counter's value by amount,
	// waking every waiter whose level the new value satisfies.
	// Increment(0) is a no-op. Increment panics if the value would
	// overflow uint64, since wrap-around would violate monotonicity.
	// In process, the overflowing Increment leaves the value unchanged
	// and the counter usable; a remote client reports the server's
	// rejection by panicking on its next operation (see
	// counter/remote).
	Increment(amount uint64)

	// Check suspends the caller until the value is at least level;
	// a satisfied level returns immediately, forever.
	Check(level uint64)

	// CheckContext is Check with cancellation: nil once the value
	// reaches level, ctx.Err() if the context wins. A satisfied level
	// beats a cancelled context, cancellation never perturbs the
	// counter, and no goroutine is spawned per call.
	CheckContext(ctx context.Context, level uint64) error

	// WaitTimeout is Check bounded by a timeout, reporting whether the
	// level was reached; a satisfied level beats an expired deadline.
	WaitTimeout(level uint64, d time.Duration) bool

	// Reset sets the value back to zero for reuse between phases. It
	// must not run concurrently with any other operation and panics if
	// waiters are suspended on the counter.
	Reset()
}

// The public types implement Interface, StatsProvider and the watch
// surface counter/wait takes as it is (compile-time checks; the remote
// and cluster clients assert the same in their own packages).
var (
	_ Interface       = (*Counter)(nil)
	_ Interface       = (*Sharded)(nil)
	_ StatsProvider   = (*Counter)(nil)
	_ StatsProvider   = (*Sharded)(nil)
	_ core.Sentineler = (*Counter)(nil)
	_ core.Sentineler = (*Sharded)(nil)
)

// Hook is a caller-owned one-shot hook, armed by every counter's
// ArmHook: embed it in the record that owns the wait and Bind it once
// to that record, whose Fire it runs. It is the engine's own type.
type Hook = core.Hook

// Impls lists the in-process implementation names Open accepts, in
// registry order (reference design first). The set is the internal
// registry that the conformance, fuzz, and stress suites iterate, so an
// implementation reachable here is covered by the whole battery.
func Impls() []string {
	impls := core.Registry()
	names := make([]string, len(impls))
	for i, impl := range impls {
		names[i] = string(impl)
	}
	return names
}

// Open returns a fresh counter of the named in-process implementation.
// "list" is the paper's section 7 reference design (also available as
// Counter) and "sharded" is the production engine that counterd runs
// (also available as Sharded); the other names in Impls are the
// ablations and baselines the experiments compare them against. Every
// returned counter also implements StatsProvider (so Publish works on
// it) and accepts SetProbe, which "chan" ignores because it has no
// engine-side hook. Unknown names return an error listing the valid
// ones.
func Open(impl string) (Interface, error) {
	switch core.Impl(impl) {
	case core.ImplList:
		return new(Counter), nil
	case core.ImplSharded:
		return new(Sharded), nil
	case core.ImplHeap:
		return new(facade[core.HeapCounter, *core.HeapCounter]), nil
	case core.ImplChan:
		return new(facade[core.ChanCounter, *core.ChanCounter]), nil
	case core.ImplBroadcast:
		return new(facade[core.BroadcastCounter, *core.BroadcastCounter]), nil
	case core.ImplAtomic:
		return new(facade[core.AtomicCounter, *core.AtomicCounter]), nil
	case core.ImplSpin:
		return new(facade[core.SpinCounter, *core.SpinCounter]), nil
	case core.ImplFC:
		return new(facade[core.FCCounter, *core.FCCounter]), nil
	}
	return nil, fmt.Errorf("counter: unknown implementation %q (have %s)",
		impl, strings.Join(Impls(), ", "))
}
