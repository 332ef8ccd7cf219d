// Package core implements monotonic counters, the thread-synchronization
// mechanism introduced by Thornley and Chandy ("Monotonic Counters: A New
// Mechanism for Thread Synchronization", IPPS 2000).
//
// A monotonic counter is an object with a nonnegative integer value that
// starts at zero and only ever increases. It supports two fundamental
// operations:
//
//   - Increment(amount): atomically add amount to the value, waking every
//     goroutine suspended on a level that the new value now satisfies.
//   - Check(level): suspend the calling goroutine until value >= level.
//
// There is deliberately no Decrement and no non-blocking probe of the
// value: because the value is monotonically increasing, a Check can never
// miss an Increment, so counter synchronization is free of the races that
// condition variables and semaphores admit. Programs whose shared variables
// are guarded by counter operations are deterministic, and (if their
// sequential execution does not deadlock) their multithreaded execution is
// deadlock-free and equivalent to sequential execution (paper, section 6).
//
// The package provides eight interchangeable implementations of the
// Interface, listed in Registry order:
//
//   - Counter ("list"): the paper's reference design (section 7) — a
//     mutex plus an ordered list of per-level waiter nodes, each node
//     holding its own condition variable. Storage and wake time are
//     proportional to the number of *distinct levels* with waiters, not
//     to the number of waiting goroutines. It is the design behind the
//     Figure 2 trace and the single-threaded simulator (Sim).
//   - HeapCounter ("heap"): the same waiter-node design with a binary
//     min-heap in place of the sorted linked list (O(log L) insertion).
//   - ChanCounter ("chan"): per-level nodes whose broadcast is a
//     close(chan), the idiomatic Go translation, with no waitlist engine.
//   - BroadcastCounter ("broadcast"): a deliberately naive baseline with a
//     single condition variable and a full broadcast on every increment
//     (the thundering-herd design the paper's cost analysis argues
//     against).
//   - AtomicCounter ("atomic"): the list design with a hash-striped level
//     index, so registering waiters on different levels do not serialize
//     on one mutex.
//   - SpinCounter ("spin"): the atomic design behind a bounded
//     spin-then-block Check.
//   - ShardedCounter ("sharded"): the production engine that counterd
//     runs: the striped level index, plus increments absorbed lock-free
//     while nobody waits — by one base cell, and from the first
//     contended CAS on it by GOMAXPROCS cache-padded shard cells, so an
//     uncontended counter holds 288 B at any GOMAXPROCS.
//   - FCCounter ("fc"): the list design with a flat-combining path for
//     contended increments.
//
// Only Counter and ShardedCounter have public facade types
// (counter.Counter and counter.Sharded); the others are the ablations and
// baselines the experiments compare them against.
//
// All implementations share identical blocking semantics; the test suite
// checks them against a single sequential model. The condition-variable
// based implementations are built on one shared waitlist engine whose
// per-level nodes pair a condition variable with a close-on-satisfy
// channel, so context cancellation (CheckContext, WaitTimeout — both
// extensions beyond the paper) is a channel select: no implementation
// spawns a goroutine on behalf of a caller, a satisfied level always
// beats a cancelled context, and the last cancelled waiter on a level
// reclaims the level's node. The engine writes both sides once: one
// registration step per design serves every Check, CheckContext and
// ArmHook; on the write side every design but ShardedCounter keeps its
// value in one shared watermark, list, heap, broadcast, atomic and spin
// share one add-and-release step (checked add, watermark store and
// increment tally, then the levels the engine-owned index pops marked
// satisfied, the mutex released and those levels woken), and every
// engine design shares one Reset misuse check. An overflowing Increment
// releases every lock before it panics, so a caller that recovers the
// panic keeps a usable counter. Each design keeps only what makes it an
// ablation: its index, broadcast's re-join loop, spin's spin phase, the
// combining and shard folds of fc and sharded, and chan's gates. Two
// bases write the rest of the method sets once: list, heap and
// broadcast are the generic indexed base (engine, watermark and level
// index) over their index, and atomic and fc embed the striped base
// (watermark, engine and striped index), whose Reset, Stats,
// LockAcquires and SetProbe they share; spin embeds the atomic design.
package core
