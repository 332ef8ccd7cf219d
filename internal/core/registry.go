package core

// Impl identifies one counter implementation for tests, benchmarks, and
// command-line selection.
type Impl string

// The implementations available in this package.
const (
	ImplList      Impl = "list"      // reference design, paper section 7
	ImplHeap      Impl = "heap"      // min-heap waiter index
	ImplChan      Impl = "chan"      // close-channel broadcast
	ImplBroadcast Impl = "broadcast" // naive single-condvar baseline
	ImplAtomic    Impl = "atomic"    // list design + lock-free fast path
	ImplSpin      Impl = "spin"      // spin-then-block hybrid over the atomic design
	ImplSharded   Impl = "sharded"   // waiter-gated striped increment fast path
	ImplFC        Impl = "fc"        // flat-combining contended increment path
)

// Registry returns every implementation, reference design first: the set
// every conformance, fuzz, cancellation, and stress suite must cover.
// Test code iterates this (rather than hard-coding names) so a newly
// registered implementation is picked up by the whole battery
// automatically. The returned slice is a fresh copy; callers may reorder
// or filter it.
func Registry() []Impl {
	return []Impl{ImplList, ImplHeap, ImplChan, ImplBroadcast, ImplAtomic, ImplSpin, ImplSharded, ImplFC}
}

// NewImpl constructs a fresh counter of the named implementation. It
// panics on an unknown name, which is always a programming error.
func NewImpl(impl Impl) Interface {
	switch impl {
	case ImplList:
		return New()
	case ImplHeap:
		return NewHeap()
	case ImplChan:
		return NewChan()
	case ImplBroadcast:
		return NewBroadcast()
	case ImplAtomic:
		return NewAtomic()
	case ImplSpin:
		return NewSpin()
	case ImplSharded:
		return NewSharded()
	case ImplFC:
		return NewFC()
	}
	panic("core: unknown counter implementation " + string(impl))
}

// NewImpl's switch already checks that every constructor returns an
// Interface. Beyond that, every registry implementation reports the
// unified Stats schema; the engine-based ones (all but ChanCounter,
// which has no engine) also accept a probe. The conformance suite relies
// on both. These are the package's only compile-time assertions of the
// public surfaces; the design files do not repeat them.
var (
	_ StatsProvider = (*Counter)(nil)
	_ StatsProvider = (*HeapCounter)(nil)
	_ StatsProvider = (*ChanCounter)(nil)
	_ StatsProvider = (*BroadcastCounter)(nil)
	_ StatsProvider = (*AtomicCounter)(nil)
	_ StatsProvider = (*SpinCounter)(nil)
	_ StatsProvider = (*ShardedCounter)(nil)
	_ StatsProvider = (*FCCounter)(nil)

	_ ProbeSetter = (*Counter)(nil)
	_ ProbeSetter = (*HeapCounter)(nil)
	_ ProbeSetter = (*BroadcastCounter)(nil)
	_ ProbeSetter = (*AtomicCounter)(nil)
	_ ProbeSetter = (*SpinCounter)(nil)
	_ ProbeSetter = (*ShardedCounter)(nil)
	_ ProbeSetter = (*FCCounter)(nil)

	// Every registry implementation is a Sentineler, the watch surface
	// the predicate layer takes as it is (see sentinel.go).
	_ Sentineler = (*Counter)(nil)
	_ Sentineler = (*HeapCounter)(nil)
	_ Sentineler = (*ChanCounter)(nil)
	_ Sentineler = (*BroadcastCounter)(nil)
	_ Sentineler = (*AtomicCounter)(nil)
	_ Sentineler = (*SpinCounter)(nil)
	_ Sentineler = (*ShardedCounter)(nil)
	_ Sentineler = (*FCCounter)(nil)

	// Every registry implementation reports mutex acquisitions for the
	// E25 zero-lock assertion (see LockCounter in stats.go).
	_ LockCounter = (*Counter)(nil)
	_ LockCounter = (*HeapCounter)(nil)
	_ LockCounter = (*ChanCounter)(nil)
	_ LockCounter = (*BroadcastCounter)(nil)
	_ LockCounter = (*AtomicCounter)(nil)
	_ LockCounter = (*SpinCounter)(nil)
	_ LockCounter = (*ShardedCounter)(nil)
	_ LockCounter = (*FCCounter)(nil)
)

// Monotonic is the paper's counter: its two operations of section 2 and
// nothing more. A program that synchronizes only through them returns
// its sequential result on any correct counter (section 6), so each of
// the paper's programs that lets its caller choose the counter takes a
// constructor of Monotonic. Every registry design satisfies it, as do
// the public counter types and the remote and cluster counters.
type Monotonic interface {
	Increment(amount uint64)
	Check(level uint64)
}

// New constructs a fresh counter of impl as a Monotonic: the method
// value impl.New is the constructor those programs take.
func (impl Impl) New() Monotonic { return NewImpl(impl) }
