package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file is the engine-level observability layer: one Stats schema
// reported by every implementation in the registry, a StatsProvider
// interface that tests, the counter facade, and production exporters
// (expvar) consume, and a zero-cost-when-disabled probe hook for
// event-level instrumentation. The collector itself lives on the shared
// waitlist engine (waitlist.go), so the condition-variable designs share
// one implementation; ChanCounter, which has no engine, keeps equivalent
// tallies under its own mutex and reports them through the same schema.

// Stats are cumulative cost-model measurements for one counter — the
// section 7 claims ("storage and time proportional to distinct waited-on
// levels, not waiters") made observable, in one schema for every
// registered implementation. Counters only ever grow; Reset does NOT clear them
// (a reused counter keeps its lifetime totals, so long-running
// deployments can export them as monotone metrics).
//
// Every layer passes the schema along unchanged: counter.Stats is this
// type, and OpStatsReply carries its engine fields. A remote counter
// fills in the client-local Remote* fields, which never travel.
//
// Snapshot consistency invariant: in any Stats value returned by a
// StatsProvider, Broadcasts <= SatisfiedLevels and ChannelCloses <=
// SatisfiedLevels. The wake-side tallies are bumped by the incrementer
// after it releases the engine mutex, so they lag the satisfied-level
// count during a wake storm and catch up once the batch finishes; a
// snapshot can never observe a wake whose satisfy it has not observed.
type Stats struct {
	// PeakLevels is the maximum number of distinct not-yet-satisfied
	// levels ever waited on at once. Satisfied nodes still draining
	// their waiters are not counted: they no longer represent a
	// waited-on level. For BroadcastCounter — whose single round node
	// deliberately ignores levels — this is the peak number of live
	// round nodes (at most 1): that flattening is the ablation.
	PeakLevels int
	// SatisfiedLevels counts levels satisfied by increments — the
	// paper's "one wake-up per satisfied level" cost unit. For
	// BroadcastCounter it counts satisfied wake rounds (every increment
	// with waiters satisfies the one round node, whatever its levels).
	SatisfiedLevels uint64
	// Broadcasts counts condition-variable broadcasts actually issued
	// by the wake path: a satisfied level whose waiters all sleep on
	// ready channels (CheckContext) needs no broadcast, so Broadcasts
	// can be less than SatisfiedLevels.
	Broadcasts uint64
	// ChannelCloses counts ready-channel closes issued by the wake
	// path — the CheckContext counterpart of Broadcasts. A level with
	// both kinds of sleeper costs one of each. For ChanCounter every
	// satisfied level is exactly one channel close.
	ChannelCloses uint64
	// Suspends counts Check/CheckContext calls that registered as a
	// waiter (actually blocked). BroadcastCounter waiters woken below
	// their level re-register, so its Suspends counts every park.
	// counterd counts here each wire Check it parks, once more when a
	// client replays it after a reconnect. A remote client sends one
	// Check for all its blocking calls on one level and adds the calls
	// that joined it, so its counter counts every blocking call. A joined
	// call cancelled while others still wait on its level asks counterd
	// again with a fresh Check, which counts again: here if it parks, in
	// ImmediateChecks if the level is already reached. Arming a hook
	// counts neither here nor in ImmediateChecks, in-process or on the
	// wire, except from a v2 session, whose sentinels travel as Checks.
	Suspends uint64
	// ImmediateChecks counts Check/CheckContext calls satisfied without
	// blocking, whether on a locked re-check or a lock-free fast path.
	// counterd counts here each wire Check it answers at once, and a
	// remote counter adds the checks its own watermark answered.
	ImmediateChecks uint64
	// Increments counts value-changing Increment calls. Increment(0) is
	// a documented no-op and is not counted: the fast-path
	// implementations return before touching any shared state.
	Increments uint64
	// SpinRounds counts yield-spin probes made before suspending
	// (SpinCounter only; zero elsewhere).
	SpinRounds uint64
	// FastPathIncrements counts increments that never queued on the
	// engine mutex: absorbed by the lock-free striped fast path
	// (ShardedCounter) or folded from flat-combining slots by a lock
	// holder (FCCounter). Zero elsewhere; always included in Increments.
	FastPathIncrements uint64
	// Flushes counts fold passes bringing out-of-lock increments into
	// the published value: residue flushes (ShardedCounter) or
	// combining drains that folded at least one delta (FCCounter).
	Flushes uint64
	// RemoteRoundTrips counts completed wire exchanges a remote counter
	// performed on the caller's behalf: resolved waits (wakes and
	// cancel acknowledgements), increment acknowledgements, and
	// stats/reset replies. Zero for in-process counters.
	RemoteRoundTrips uint64
	// RemoteWaitNanos accumulates wall-clock nanoseconds remote
	// Check/CheckContext calls spent blocked on the wire — the
	// client-side latency counterpart of Suspends: each call's own wait,
	// also when several share one wire wait (a level's wake adds
	// n·t_wake − Σ t_join over its n calls). Zero for in-process
	// counters.
	RemoteWaitNanos uint64
}

// StatsProvider is implemented by every implementation in the registry.
// The conformance suite (stats_test.go) holds each of them to the same
// schema semantics.
type StatsProvider interface {
	Stats() Stats
}

// EventKind discriminates probe events.
type EventKind uint8

const (
	// EventIncrement fires once per value-changing Increment call, after
	// the counter's locks are released; Event.Level carries the amount.
	EventIncrement EventKind = iota
	// EventSuspend fires when a waiter is about to park; Event.Level is
	// the level waited on.
	EventSuspend
	// EventWake fires once per satisfied level as its waiters are woken
	// (the paper's cost unit, observed live); Event.Level is the level.
	EventWake
)

// String returns the kind's name for logs and traces.
func (k EventKind) String() string {
	switch k {
	case EventIncrement:
		return "increment"
	case EventSuspend:
		return "suspend"
	case EventWake:
		return "wake"
	}
	return "unknown"
}

// Event is one probe observation.
type Event struct {
	Kind  EventKind
	Level uint64
}

// ProbeSetter is implemented by the engine-based implementations (all of
// the registry except ChanCounter, which has no engine): SetProbe(nil)
// disables the hook. The probe is a nil-checked function pointer — when
// disabled, the only cost on any path is one atomic pointer load — and
// it is never invoked with the engine mutex (or any per-level wake lock)
// held, so a probe may itself inspect the counter.
type ProbeSetter interface {
	SetProbe(func(Event))
}

// lockCounting gates the mutex-acquisition probe: while enabled, every
// engine-mutex and stripe-mutex acquisition made through the lock
// helpers is counted into the owning structure's tally. Disabled (the
// default) the probe is one atomic load of a never-written word next to
// a mutex operation — unmeasurable against the lock itself.
var lockCounting atomic.Bool

// SetLockCounting enables or disables mutex-acquisition counting
// process-wide. It exists for the E25 experiment and tests that assert
// lock-freedom of the satisfied fast path; production code has no
// reason to enable it.
func SetLockCounting(on bool) { lockCounting.Store(on) }

// LockCounter is implemented by every registry implementation: it
// reports the number of counter-mutex acquisitions (engine mutex plus
// any stripe mutexes — ChanCounter counts its one mutex) recorded while
// SetLockCounting was enabled. E25 asserts the delta across a batch of
// already-satisfied checks is zero for every implementation.
type LockCounter interface {
	LockAcquires() uint64
}

// stripeCount returns the number of cells a striped structure should
// allocate: GOMAXPROCS at the moment of the call, rounded up to a power
// of two. Callers must capture the result ONCE per structure — at
// construction or first use — and size/index off that capture forever:
// GOMAXPROCS can be raised or lowered mid-run, and two arrays belonging
// to one counter that sized themselves at different moments would
// disagree about the stripe space (the bug behind the
// TestStripeCountCapturedOnce regression test). Indexing stays in range
// regardless because stripeIndex masks by the actual array length.
func stripeCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return size
}

// stripeIndex picks a stripe from the address of a stack variable:
// stacks are per-goroutine, so concurrent callers spread across cells.
// The mapping is only statistical — Go moves goroutine stacks when they
// grow, so a goroutine's stripe can change over its lifetime — which is
// fine for contention spreading but must never be relied on for
// correctness (see ShardedCounter's overflow notes). mask is a
// power-of-two length minus one.
func stripeIndex(mask uint64) uint64 {
	var marker byte
	h := uint64(uintptr(unsafe.Pointer(&marker)))
	h ^= h >> 33
	h *= 0x9e3779b97f4a7c15
	return (h >> 24) & mask
}

// stripedUint64 is a contention-spread counter for lock-free fast paths.
// Add lands on a base word until a CAS on it fails; from that first
// contended Add on, it lands on one of stripeCount cache-padded cells
// chosen by stripeIndex, so concurrent fast-path callers do not
// serialize on one cache line. Load sums the base and the cells (a
// momentary snapshot, like any concurrent counter read). The zero value
// is ready to use, and an uncontended one allocates nothing; a counter
// that owns other striped arrays sizes the cells with ensure instead,
// so every array of one counter captures the same stripe count.
type stripedUint64 struct {
	base  atomic.Uint64
	cells atomic.Pointer[[]paddedUint64]
}

// ensure allocates the cell array with the given size if none exists
// yet, letting the owning counter size all its striped structures from
// one stripeCount capture. Concurrency-safe; the first allocation wins.
func (s *stripedUint64) ensure(size int) {
	if s.cells.Load() != nil {
		return
	}
	fresh := make([]paddedUint64, size)
	s.cells.CompareAndSwap(nil, &fresh)
}

type paddedUint64 struct {
	v atomic.Uint64
	_ [120]byte // two cache lines, clear of the adjacent-line prefetcher
}

// Add adds n. Once the cells exist it adds to the caller's cell;
// before, it tries the base, and a failed CAS there allocates the cells
// (stripeCount captured exactly once: racing initializers agree on the
// winner via CompareAndSwap, and whatever GOMAXPROCS says later, the
// array and the masks derived from its length never change).
func (s *stripedUint64) Add(n uint64) {
	p := s.cells.Load()
	if p == nil {
		old := s.base.Load()
		if s.base.CompareAndSwap(old, old+n) {
			return
		}
		s.ensure(stripeCount())
		p = s.cells.Load()
	}
	(*p)[stripeIndex(uint64(len(*p)-1))].v.Add(n)
}

func (s *stripedUint64) Load() uint64 {
	sum := s.base.Load()
	if p := s.cells.Load(); p != nil {
		for i := range *p {
			sum += (*p)[i].v.Load()
		}
	}
	return sum
}
