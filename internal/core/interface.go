package core

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Interface is the behaviour shared by every counter implementation in this
// package. The two fundamental operations are those defined in section 2 of
// the paper; the remaining methods are practical extensions that preserve
// the monotonicity guarantees.
type Interface interface {
	// Increment atomically increases the counter's value by amount and
	// wakes every goroutine suspended on a level less than or equal to
	// the new value. Increment(0) is a no-op. Increment panics if the
	// addition would overflow the counter's uint64 value, since a
	// wrapped value would violate monotonicity. The overflowing
	// Increment stores nothing and releases its locks before it panics,
	// so a caller that recovers the panic finds the value unchanged and
	// the counter usable.
	Increment(amount uint64)

	// Check suspends the calling goroutine until the counter's value is
	// greater than or equal to level. If the value already satisfies
	// level, Check returns immediately.
	Check(level uint64)

	// CheckContext behaves like Check but additionally returns early
	// with ctx.Err() if the context is cancelled first. This is an
	// extension beyond the paper (which targets systems without
	// cancellation); a cancelled CheckContext has no effect on the
	// counter.
	//
	// A satisfied level beats a cancelled context: if value >= level
	// when the call is made — even with an already-expired context —
	// CheckContext returns nil, preserving "once Check(level) would
	// pass, it passes forever". Implementations suspend by selecting
	// on a per-level channel and never spawn a goroutine on behalf of
	// the call.
	CheckContext(ctx context.Context, level uint64) error

	// Reset sets the value back to zero so the counter can be reused
	// between algorithm phases (paper, section 2). Reset must not be
	// called concurrently with any other operation on the counter;
	// implementations panic if goroutines are still waiting.
	Reset()

	// Value returns the current value. It exists for inspection,
	// tracing, and testing only: per section 2 of the paper, programs
	// must not base synchronization decisions on an instantaneous value,
	// which is why the public counter package does not re-export it.
	Value() uint64
}

// WaitTimeout suspends until c's value reaches level or the timeout
// elapses, reporting whether the level was reached; every counter's
// WaitTimeout ends here. A satisfied level beats an expired deadline:
// an engine design's own counted look (satisfied) answers a covered
// level before any timer is made, and otherwise CheckContext decides
// under the deadline — nil is true, the deadline false, and any other
// error (a remote client's ErrClosed) panics with that error.
func WaitTimeout(c interface {
	CheckContext(ctx context.Context, level uint64) error
}, level uint64, d time.Duration) bool {
	if s, ok := c.(interface{ satisfied(uint64) bool }); ok && s.satisfied(level) {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	switch err := c.CheckContext(ctx, level); {
	case err == nil:
		return true
	case errors.Is(err, context.DeadlineExceeded):
		return false
	default:
		panic(err)
	}
}

// checkedAdd returns v+amount, panicking on uint64 overflow. Overflow would
// wrap the value downward and silently break monotonicity, so it is treated
// as a programming error.
func checkedAdd(v, amount uint64) uint64 {
	s := v + amount
	if s < v {
		panic("core: counter value overflow")
	}
	return s
}

// overflow releases mu and returns checkedAdd's panic value, for an add
// that holds mu to panic with — panic(overflow(mu)) — so a caller that
// recovers the panic is left with a usable counter rather than a held
// mutex. The panic stays at the call site, where the compiler sees the
// branch end, and the unlock stays out of line, off the hot path.
//
//go:noinline
func overflow(mu *sync.Mutex) string {
	mu.Unlock()
	return "core: counter value overflow"
}
