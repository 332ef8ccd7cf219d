package counter

import (
	"monotonic/internal/core"
)

// Sharded is a monotonic counter for write-heavy use: while no goroutine
// is waiting, Increment is a single atomic update on one cell. An
// uncontended counter has one, so it holds about 300 B at any
// GOMAXPROCS; the first update that collides with another's (a failed
// compare-and-swap) stripes the counter into GOMAXPROCS cache-padded
// cells, so heavily concurrent incrementers scale with cores instead of
// serializing on a mutex. The moment a Check or CheckContext has to
// wait, the counter flips to the exact locked wake path of Counter and
// keeps every semantic guarantee — wake-ups by level,
// satisfied-beats-cancelled, no goroutine per cancellable wait — then
// resumes the fast path when the last waiter leaves. An overflow assembled across stripes is detected no
// later than the next flush or waiting Check; the counter never silently
// wraps.
//
// Prefer Counter when waits are frequent relative to increments (the
// classic dataflow patterns); prefer Sharded when increments dominate —
// high-rate progress publication, fan-in completion counting, metrics
// that occasionally gate a consumer. See docs/PATTERNS.md ("Write-heavy
// counters") for the protocol. Its method set is the shared facade; see
// Interface for the contract.
//
// The zero value is ready to use with value zero. A Sharded must not be
// copied after first use.
type Sharded struct {
	facade[core.ShardedCounter, *core.ShardedCounter]
}

// NewSharded returns a new write-optimized counter with value zero.
// Equivalent to new(Sharded).
func NewSharded() *Sharded { return new(Sharded) }
