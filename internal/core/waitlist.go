package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the shared blocking engine behind the condition-variable
// based implementations (Counter, AtomicCounter, HeapCounter,
// BroadcastCounter, and ShardedCounter's slow path). Each of them used
// to carry its own copy of the join/wait/leave slow path, and each copy
// turned context cancellation into a wake-up by spawning a watcher
// goroutine per CheckContext call. The engine removes both: the slow
// path lives here once, and every per-level node carries a
// close-on-satisfy channel alongside its condition variable, so
// CheckContext can select on cancellation directly — no goroutine is
// ever spawned on behalf of a caller.
//
// Division of labour: the engine owns the waiter accounting, the
// suspend/wake protocol and the write side's shared steps; the
// implementation owns its index, which organizes live nodes by level
// (sorted list, min-heap, the degenerate wake-everyone round of the
// naive baseline, or the striped list of stripes.go), and one
// registration step, enroll (see enroller), which re-reads the value and
// joins the caller to its level's node. One await then serves every
// design's Check and CheckContext, and one armHook (sentinel.go) every
// design's ArmHook. The write side is shared the same way: every design
// but sharded keeps its value in one embedded watermark (the value, its
// lock-free look and Value, whose tally readStats folds); increment is
// the one add and release step of the designs whose Increment takes the
// engine mutex outright (list, heap, broadcast, atomic and spin — fc and
// sharded fold deltas they collected themselves), reaching the
// engine-owned index through its pop; and lockIdle is the one Reset
// misuse check, over the index's empty. That split is what lets the
// implementations keep their distinguishing data-structure behaviour
// while sharing one cancellation-correct slow path and one write side.
//
// Locking: two tiers, never nested.
//
//   - The engine mutex (waitlist.mu) guards the implementation's value,
//     the index, node creation/linking, and the drain-side record of
//     satisfied nodes. It is held only for pointer surgery — never
//     across a broadcast or a channel close.
//   - Each node's wake lock (waitNode.mu) guards that level's condition
//     variable, its sleeper count, and its ready channel. Waiters on
//     level L contend only with each other — and, since the satisfied
//     drain is an atomic decrement, usually not at all — never with
//     incrementers, joiners, or waiters on other levels.
//
// An Increment therefore does its wake-ups out of lock: it unlinks the
// satisfied levels from the index and records them as draining under
// the engine mutex, releases it, and only then closes ready channels
// and broadcasts (wakeBatch). N woken waiters resume without a single
// engine-mutex handoff; exactly one of them (the last to drain) takes
// the engine mutex once to retire the node.

// waitNode is one suspension queue: all goroutines waiting for the same
// level. It extends the four-field structure of the paper's Figure 2
// (level, waiter count, condition with its "set" flag, link) with a
// ready channel that the wake path closes, giving CheckContext a
// selectable wake-up. Waiters whose context can never be cancelled
// (every Check) sleep on cond, the rest in a select on ready; wakeBatch
// wakes both.
type waitNode struct {
	level uint64
	// count is the number of registered waiters. It rises only under
	// the engine mutex (join) and falls atomically (drain), so the
	// engine mutex sees a stable zero: once zero with no index link,
	// the node is retired.
	count atomic.Int64
	// set flips false→true exactly once, under the engine mutex, at the
	// moment the node leaves the index for the draining record. Readers
	// check it lock-free (Load synchronizes with the Store).
	set atomic.Bool
	// drained marks the node's cleanup as done; guarded by the engine
	// mutex. It makes the last-waiter retirement idempotent when a
	// level is abandoned, re-joined, and abandoned again concurrently.
	drained bool
	// drainIdx is the node's slot in the waitlist's draining record,
	// valid while set; guarded by the engine mutex. It makes retiring a
	// draining node O(1) even when one increment satisfied thousands of
	// levels. It and sleepers are int32, which holds the node at 144
	// bytes (TestSentinelCancelAnywhereInChain pins the size).
	drainIdx int32

	// mu is the per-level wake lock: it guards cond, sleepers, and
	// ready, and is the lock condvar sleepers park on (cond.L == &mu).
	// It is never acquired with the engine mutex held.
	mu       sync.Mutex
	sleepers int32 // goroutines inside cond.Wait, so wakeBatch broadcasts only when someone listens
	cond     sync.Cond
	// ready is closed by wakeBatch and selected on by park. It is
	// allocated lazily by the first cancellable waiter, so nodes used
	// only by plain Check stay close to the paper's four fields.
	ready chan struct{}

	// hooks is the doubly linked chain of armed caller-owned hooks
	// (sentinel.go) watching this level, guarded by mu like the rest of
	// the wake-side state; a Hook.Cancel unlinks its hook in O(1).
	// wakeBatch detaches the chain under mu and fires the hooks only
	// after releasing it, so hooks — like wake-ups — never run under
	// the engine mutex or a wake lock, and the two-tier "never nested"
	// locking invariant above is unchanged by their existence. The
	// chain links live in the callers' hooks, so parking one more hook
	// on a level that already has a node costs the engine nothing.
	hooks *Hook
	// gate, when non-nil, is the owning counter's waiter gate
	// (ShardedCounter), recorded by the stripe that creates the node
	// (stripedList.register) and immutable after. Every count on the
	// node — a parked waiter or an armed hook — holds the gate up once,
	// and drain lowers it once per count.
	gate *atomic.Int32

	// home is the stripe that owns this node when it was created by a
	// striped level index (stripes.go), nil for engine-indexed nodes.
	// Immutable after creation; drain dispatches on it so stripe-owned
	// nodes retire under their stripe's mutex, not the engine mutex.
	home *stripe

	next *waitNode // used by list-shaped indexes only

	// wl is the engine that created the node, immutable after creation.
	// It is how await and a Hook.Cancel, which hold only the node, park
	// and drain; an engine-indexed node's index is found on wl (see
	// waitlist.idx).
	wl *waitlist
}

// levelIndex is the per-implementation structure organizing waitNodes by
// level. All methods are called with the engine mutex held.
type levelIndex interface {
	// acquire returns the live (not-yet-satisfied) node for level and
	// whether this call created it, creating and indexing a new node
	// with newWaitNode if none exists. A single operation rather than
	// lookup-then-add so list-shaped indexes find-or-splice in one
	// walk.
	acquire(w *waitlist, level uint64) (n *waitNode, created bool)
	// drop is called when a never-satisfied node's last waiter leaves;
	// the index removes whatever references to n it still holds. This
	// is the cancellation path reclaiming an abandoned level
	// (satisfied nodes leave the index through pop instead).
	drop(n *waitNode)
	// pop unlinks every node the new value satisfies — an increment's
	// satisfied batch — and returns them chained through next in
	// ascending level order, nil if there are none, for the release
	// step of increment.
	pop(value uint64) *waitNode
	// empty reports whether no live node is indexed: the index's half
	// of Reset's misuse check (lockIdle).
	empty() bool
}

// newWaitNode returns a node of w whose condition variable sleeps on
// its own wake lock, for levelIndex implementations to use inside
// acquire.
func newWaitNode(w *waitlist, level uint64) *waitNode {
	n := &waitNode{level: level, wl: w}
	n.cond.L = &n.mu
	return n
}

// waitlist is the engine. The zero value is ready to use; the index is
// passed into each join, which records it, so that zero-value counters
// need no constructor.
type waitlist struct {
	mu sync.Mutex
	// draining holds satisfied nodes whose waiters have not all resumed
	// yet, ascending by level (satisfied levels only grow). Guarded by
	// mu. This is what keeps a mid-drain Figure 2 snapshot accurate
	// after the node has left the index. Retired nodes leave nil slots
	// (drainLive counts the rest) so retirement never shifts the slice;
	// the record resets to empty when the last drainer leaves.
	draining  []*waitNode
	drainLive int
	// idx is the counter's level index, recorded by every join so drain,
	// which holds only the node, can retire an abandoned engine-indexed
	// node. Guarded by mu; every engine-indexed design has exactly one
	// index, so the field never changes once set. Striped designs leave
	// it nil: their nodes retire through home.
	idx levelIndex

	// stats is the unified cost-model collector shared by every
	// engine-based implementation (see Stats in stats.go).
	stats engineStats
	// probe is the pluggable event hook; nil means disabled. Stored as
	// a pointer so enable/disable is one atomic store and the disabled
	// check is one atomic load. Never invoked under w.mu or a node's
	// wake lock.
	probe atomic.Pointer[func(Event)]

	// lockAcquires counts engine-mutex acquisitions while
	// SetLockCounting is enabled (stats.go) — the probe behind E25's
	// assertion that a satisfied check takes zero mutex acquisitions.
	// Acquisitions made while counting is disabled cost one predictable
	// branch on an unshared load and are not recorded.
	lockAcquires atomic.Uint64
}

// lock takes the engine mutex through the counting probe. Every
// implementation hot path acquires w.mu through lock/tryLock so the E25
// zero-lock assertion measures all of them; unlock exists for symmetry.
func (w *waitlist) lock() {
	w.mu.Lock()
	if lockCounting.Load() {
		w.lockAcquires.Add(1)
	}
}

func (w *waitlist) unlock() { w.mu.Unlock() }

func (w *waitlist) tryLock() bool {
	if !w.mu.TryLock() {
		return false
	}
	if lockCounting.Load() {
		w.lockAcquires.Add(1)
	}
	return true
}

// engineStats is the collector behind the unified Stats schema. The
// locked fields change only under the engine mutex, where the events
// they count happen anyway, so counting them is free of extra
// synchronization; the wake-side tallies are bumped by the incrementer
// after it releases the mutex (re-locking just to count would put the
// engine mutex back on the wake path), so they are atomics.
type engineStats struct {
	// Guarded by the engine mutex. liveLevels counts the
	// not-yet-satisfied nodes in the engine-owned index, so increment
	// pops only while it is nonzero.
	liveLevels      int
	peakLevels      int
	satisfiedLevels uint64
	suspends        uint64
	immediateChecks uint64
	increments      uint64
	// The tallies of the folds that bring out-of-lock increments in:
	// FCCounter's combining fold (increments folded from the slots, and
	// folds that took at least one) and ShardedCounter's residue flush
	// (cell counts flushed, and flush passes).
	fastPathIncs uint64
	flushes      uint64

	// Wake-side tallies, updated out of lock by wakeBatch.
	broadcasts    atomic.Uint64
	channelCloses atomic.Uint64
}

// readStats assembles a consistent snapshot. The wake-side atomics are
// loaded BEFORE the mutex-guarded fields: a wake is issued only after
// its level's satisfy was recorded under the mutex, so reading wakes
// first guarantees every counted wake's satisfy is included in the
// locked read that follows — the documented Broadcasts <=
// SatisfiedLevels / ChannelCloses <= SatisfiedLevels invariant. (Read
// the other way round, a wake landing between the two reads could be
// counted while its satisfy was not.) locked, when not nil, adds a
// design's own tallies under the same hold of the mutex; fastChecks,
// the design's lock-free satisfied looks, is folded into
// ImmediateChecks.
func (w *waitlist) readStats(fastChecks *stripedUint64, locked func(*Stats)) Stats {
	b := w.stats.broadcasts.Load()
	cl := w.stats.channelCloses.Load()
	w.lock()
	s := w.stats.guarded()
	if locked != nil {
		locked(&s)
	}
	w.unlock()
	s.Broadcasts, s.ChannelCloses = b, cl
	s.ImmediateChecks += fastChecks.Load()
	return s
}

// guarded copies the mutex-guarded portion of the collector. Called with
// the owning mutex held; the caller fills the wake-side tallies (loaded
// before locking — see readStats) and any implementation-specific
// fields.
func (s *engineStats) guarded() Stats {
	return Stats{
		PeakLevels:         s.peakLevels,
		SatisfiedLevels:    s.satisfiedLevels,
		Suspends:           s.suspends,
		ImmediateChecks:    s.immediateChecks,
		Increments:         s.increments,
		FastPathIncrements: s.fastPathIncs,
		Flushes:            s.flushes,
	}
}

// SetProbe installs (or, with nil, removes) the event hook.
func (w *waitlist) SetProbe(f func(Event)) {
	if f == nil {
		w.probe.Store(nil)
		return
	}
	w.probe.Store(&f)
}

// emit invokes the probe if one is installed. Never called with w.mu or
// a node wake lock held; when no probe is set this is one atomic load,
// inlined into the caller.
func (w *waitlist) emit(kind EventKind, level uint64) {
	if p := w.probe.Load(); p != nil {
		probeEvent(p, kind, level)
	}
}

// probeEvent is emit's call of an installed probe, kept out of line so
// that emit stays small enough to inline.
//
//go:noinline
func probeEvent(p *func(Event), kind EventKind, level uint64) {
	(*p)(Event{Kind: kind, Level: level})
}

// watermark is the value of every design but sharded (whose value is
// spread over its base and shard cells): moved only under the design's
// mutex and stored before any wake, so one lock-free load decides a
// satisfied check. Monotonicity makes that safe — a stale read can only
// under-estimate — and the seq-cst store/load pair keeps the
// happens-before edge from the publishing Increment. fastChecks tallies
// the satisfied lock-free looks, which Stats folds into
// ImmediateChecks.
type watermark struct {
	value      atomic.Uint64
	fastChecks stripedUint64
}

// satisfied is the lock-free watermark look (enroller): one atomic load,
// and a hit counts a fast check.
func (m *watermark) satisfied(level uint64) bool {
	if level <= m.value.Load() {
		m.fastChecks.Add(1)
		return true
	}
	return false
}

// Value implements Interface and Watermark implements Sentineler.
// Lock-free: the watermark is the value.
func (m *watermark) Value() uint64     { return m.value.Load() }
func (m *watermark) Watermark() uint64 { return m.value.Load() }

// increment is the write side of every design whose Increment takes
// the engine mutex outright (list, heap, broadcast, atomic and spin): an
// add step and a release step in one frame, since a call between them
// costs an uncontended Increment several percent. The add step takes
// the mutex (lock's body, spelled out to save that call), adds amount
// to m's value, stores the sum as the watermark — before any wake, so a
// lock-free reader that raced past the mutex sees it no later than
// woken waiters do — and counts the increment. A sum past the uint64
// range would wrap and break monotonicity, so the add step panics
// instead, after releasing w.mu and storing nothing: a caller that
// recovers the panic finds the value unchanged and the counter usable.
// The release step then pops the levels the sum satisfies from the
// engine-owned index (w.idx, which every join records; a striped index
// never joins here, so it leaves no live level and the step pops
// nothing), marks each one satisfied and draining (still
// snapshot-visible, matching Figure 2 (e)-(g)), releases the mutex,
// emits the increment, and only then wakes the popped chain, so a large
// fan-out never stalls other operations on the counter. It returns the
// sum, which a striped design's sweep needs.
func (w *waitlist) increment(m *watermark, amount uint64) uint64 {
	w.mu.Lock()
	if lockCounting.Load() {
		w.lockAcquires.Add(1)
	}
	v := m.value.Load() + amount
	if v < amount {
		panic(overflow(&w.mu))
	}
	m.value.Store(v)
	w.stats.increments++
	var head *waitNode
	if w.stats.liveLevels != 0 {
		head = w.idx.pop(v)
	}
	for n := head; n != nil; n = n.next {
		w.satisfyLocked(n)
	}
	w.unlock()
	w.emit(EventIncrement, amount)
	if head != nil {
		w.wakeBatch(head)
	}
	return v
}

// reset is Reset for the waitlist designs with a watermark: the misuse
// check, then the value back to zero. Stats are cumulative and survive
// it.
func (w *waitlist) reset(idx interface{ empty() bool }, m *watermark) {
	w.lockIdle(idx)
	m.value.Store(0)
	w.unlock()
}

// lockIdle takes the engine mutex for a Reset, and panics after
// releasing it if anything still waits on the counter, since the paper
// forbids Reset concurrent with other operations. A registered waiter
// or hook is always a node with a nonzero count, either live in idx or
// satisfied and still draining, so the draining record and idx's empty
// cover every one without a counter on the drain fast path.
func (w *waitlist) lockIdle(idx interface{ empty() bool }) {
	w.lock()
	if w.drainLive != 0 || !idx.empty() {
		w.unlock()
		panic("core: Reset called with goroutines waiting on the counter")
	}
}

// enroller is one waitlist design's wait side. satisfied is its
// lock-free watermark look, which counts a hit as an immediate check;
// enroll is its one registration step: it re-reads the value under
// whatever the design's registration holds and, while level is still
// ahead of it, adds one count to level's node and returns the node, or
// returns nil, registering nothing. suspend marks a blocking caller (a
// Check, so a suspend or an immediate check in the cost model); a hook
// passes false and counts neither way. Value is the look an uncounted
// arming makes, which counts nothing.
type enroller interface {
	satisfied(level uint64) bool
	enroll(level uint64, suspend bool) *waitNode
	Value() uint64
}

// enroll is the registration step of the engine-indexed designs (list,
// heap and broadcast): the value re-check and the join happen under the
// engine mutex, which every Increment of theirs holds while it moves
// the value.
func (w *waitlist) enroll(idx levelIndex, v *atomic.Uint64, level uint64, suspend bool) *waitNode {
	w.lock()
	if level <= v.Load() {
		if suspend {
			w.stats.immediateChecks++
		}
		w.unlock()
		return nil
	}
	n := w.join(idx, level, suspend)
	w.unlock()
	return n
}

// await is the slow path of every design's Check and CheckContext,
// entered once the design's satisfied look has failed. A context that
// is already cancelled registers nothing — after one last look, since a
// satisfied level beats a cancelled context. Otherwise the caller
// enrolls, sleeps on the condition variable when ctx can never be
// cancelled or in a select on the node's ready channel when it can, and
// drains.
func await(ctx context.Context, e enroller, level uint64) error {
	if err := ctx.Err(); err != nil {
		if e.satisfied(level) {
			return nil
		}
		return err
	}
	n := e.enroll(level, true)
	if n == nil {
		return nil
	}
	err := n.wl.park(ctx, n)
	n.wl.drain(n)
	return err
}

// join registers one count on the node for level, creating and indexing
// a new node if none is live, and records idx as the waitlist's index
// for drain. Called with w.mu held; the caller must already have
// established level > value. A suspending join is a suspend in the cost
// model (the caller is committed to blocking), and a created node is a
// new live level, so both tallies live here — the mutex is already held
// for the registration itself.
func (w *waitlist) join(idx levelIndex, level uint64, suspend bool) *waitNode {
	w.idx = idx
	n, created := idx.acquire(w, level)
	n.count.Add(1)
	if suspend {
		w.stats.suspends++
	}
	if created {
		w.stats.liveLevels++
		if w.stats.liveLevels > w.stats.peakLevels {
			w.stats.peakLevels = w.stats.liveLevels
		}
	}
	return n
}

// satisfyLocked marks n satisfied and records it as draining. Called
// with w.mu held by increment (or the simulator), once n has left its
// index; the actual wake-up is wakeBatch, after w.mu is released. Each
// call is one satisfied level — the paper's cost unit — and one fewer
// live waited-on level.
func (w *waitlist) satisfyLocked(n *waitNode) {
	n.set.Store(true)
	n.drainIdx = int32(len(w.draining))
	w.draining = append(w.draining, n)
	w.drainLive++
	w.stats.satisfiedLevels++
	w.stats.liveLevels--
}

// wakeBatch wakes every waiter parked on the batch — a chain of
// satisfied nodes linked through their next pointers, which the caller
// owns exclusively now that the nodes have left the index. Channel
// selecters wake by closing ready, condvar sleepers by broadcasting;
// the closes/broadcasts tallies go straight into the collector's
// atomics (the corresponding satisfies were already recorded under the
// mutex, so snapshots see wakes only after their satisfies — the Stats
// invariant). Called WITHOUT w.mu: this is the point of the design. The
// caller (one incrementer) holds only each node's wake lock, briefly,
// one node at a time, so a slow scheduler dispatching thousands of
// wake-ups never stalls joiners, other incrementers, or waiters on
// other levels. The chain links are severed on the way through, and the
// probe sees one EventWake per level, after that level's wake lock is
// released.
func (w *waitlist) wakeBatch(head *waitNode) {
	for n := head; n != nil; {
		next := n.next
		n.next = nil
		n.mu.Lock()
		closed := n.ready != nil
		if closed {
			close(n.ready)
		}
		bcast := n.sleepers > 0
		if bcast {
			n.cond.Broadcast()
		}
		hooks := n.hooks
		n.hooks = nil
		for h := hooks; h != nil; h = h.next {
			h.fired = true
		}
		n.mu.Unlock()
		if closed {
			w.stats.channelCloses.Add(1)
		}
		if bcast {
			w.stats.broadcasts.Add(1)
		}
		w.emit(EventWake, n.level)
		// Fire the detached hooks, each exactly once, with no lock held
		// — a hook is a re-evaluation kick for the predicate layer or a
		// wake for counterd, and must never run inside the engine. The
		// hook's count is drained (lowering any gate it holds) first so
		// the node's accounting is settled by the time Fire observes the
		// wake. Fire may re-arm or recycle its hook, so the hook is not
		// touched once Fire is called.
		for h := hooks; h != nil; {
			hn := h.next
			h.prev, h.next = nil, nil
			w.drain(n)
			h.fire.Fire()
			h = hn
		}
		n = next
	}
}

// park blocks until n is satisfied or ctx is cancelled, whichever comes
// first. A context that can never be cancelled (Done is nil, as for
// Check) sleeps on the node's condition variable; any other selects on
// the node's ready channel — no watcher goroutine. Called without any
// lock held (the caller released its registration lock after joining);
// returns with no lock held. If the node is satisfied by the time the
// cancellation is observed, park reports nil: a satisfied level beats a
// cancelled context.
func (w *waitlist) park(ctx context.Context, n *waitNode) error {
	w.emit(EventSuspend, n.level)
	done := ctx.Done()
	n.mu.Lock()
	if done == nil {
		for !n.set.Load() {
			n.sleepers++
			n.cond.Wait()
			n.sleepers--
		}
	}
	if n.set.Load() {
		n.mu.Unlock()
		return nil
	}
	ready := n.ready
	if ready == nil {
		ready = make(chan struct{})
		n.ready = ready
	}
	n.mu.Unlock()
	select {
	case <-ready:
		return nil
	case <-done:
		if n.set.Load() {
			return nil
		}
		return ctx.Err()
	}
}

// drain drops one count from n: a waiter's after park returned, or a
// hook's when it fires or is cancelled. The common case is one atomic
// decrement and no lock at all; only the goroutine that drops the count
// to zero takes a mutex, once, to retire the node (the paper's
// "deallocates the node" — here the garbage collector reclaims it once
// unreferenced). A stripe-owned node (home non-nil) retires under its
// stripe's mutex, an engine-indexed one under the engine mutex through
// w.idx. Every count on a gated node holds the gate up, so drain lowers
// it once, after the retirement. Called with no lock held.
func (w *waitlist) drain(n *waitNode) {
	if n.count.Add(-1) == 0 {
		if s := n.home; s != nil {
			s.owner.retire(s, n)
		} else {
			w.lock()
			w.cleanupLocked(n)
			w.unlock()
		}
	}
	if n.gate != nil {
		n.gate.Add(-1)
	}
}

// leaveLocked is drain for callers already holding w.mu — the
// single-threaded simulator and its benchmarks.
func (w *waitlist) leaveLocked(n *waitNode) {
	if n.count.Add(-1) == 0 {
		w.cleanupLocked(n)
	}
}

// cleanupLocked retires a node whose count reached zero: a satisfied
// node leaves the draining record, an abandoned one leaves the index.
// Called with w.mu held. The count is re-checked under the mutex —
// joins also happen under it, so a concurrent re-join of the level
// cancels the retirement (that joiner's own drain will retire it), and
// the drained flag makes the retirement idempotent.
func (w *waitlist) cleanupLocked(n *waitNode) {
	if n.drained || n.count.Load() != 0 {
		return
	}
	n.drained = true
	if n.set.Load() {
		w.removeDraining(n)
	} else {
		w.idx.drop(n)
		w.stats.liveLevels--
	}
}

// removeDraining deletes n from the draining record in O(1): its slot
// goes nil so the other nodes keep their recorded positions, and the
// slice resets once every node has retired. (An ordered splice here
// would turn one increment satisfying k levels into O(k^2) memmoves
// as the levels retire.) Called with w.mu held.
func (w *waitlist) removeDraining(n *waitNode) {
	w.draining[n.drainIdx] = nil
	w.drainLive--
	if w.drainLive == 0 {
		w.draining = w.draining[:0]
	}
}

// --- Flat combining -------------------------------------------------
//
// fcSlots is a flat-combining publication array for the engine mutex:
// an Increment that loses the race for the lock claims a slot, publishes
// its delta there, and the current lock holder — the combiner — folds
// every published delta into the value before it releases, doing the
// rivals' work while it already owns the cache lines. The rivals never
// enter the mutex's sleep queue, so a contended burst costs one lock
// handoff instead of one scheduler round trip per increment. This is the
// ActiveMonitor idea applied to the one operation of ours that is
// commutative enough to delegate: increments of a monotonic value fold
// in any order.
//
// The array is engine-level machinery but strictly opt-in: only an
// implementation that routes its Increment through claim and the
// collect/release fold (FCCounter, constructor NewFC) pays anything;
// every other counter's paths are untouched.
//
// Claim protocol: a slot is free while zero. A publisher claims one with
// a single CAS of the packed word amount<<fcTagBits|tag (tag: a nonzero
// cycling disambiguator) and then spins — yielding, never blocking —
// until either (a) the slot no longer holds its token, which means a
// combiner swapped it to zero and folded the delta (slots are claimed
// exclusively, so the first transition away from the token is that
// swap), or (b) it wins TryLock and becomes a combiner itself, folding
// whatever is still pending, its own delta included. The tag keeps two
// claims of the same amount distinguishable; in the astronomically rare
// cycle collision the publisher merely spins until it combines — safety
// never depends on the tag.
//
// A publisher returns only after its delta is folded (by itself or a
// combiner), so Increment keeps its synchronous contract: once it
// returns, Value() and every satisfied waiter reflect the delta. That
// contract is why the fold is two-phase: the combiner first reads every
// claimed slot (collectLocked), stores the combined value, and only then
// frees the slots (releaseLocked). Freeing a slot is the publisher's
// signal to return, so it must happen strictly after the value store —
// a single-pass swap-then-store fold would let a publisher return, read
// Value(), and miss its own delta.
type fcSlots struct {
	// slots is allocated once, sized by the stripe count captured at
	// first use (same capture discipline as ShardedCounter's cells).
	slots atomic.Pointer[[]fcSlot]
	// drained records, per slot, the token collectLocked read there (zero
	// for a free slot), telling releaseLocked which slots the in-flight
	// fold owns. Guarded by the engine mutex, like the fold itself.
	drained []uint64
}

// fcSlot is one publication record, padded like a shard cell so
// publishers on different slots never false-share.
type fcSlot struct {
	v atomic.Uint64 // amount<<fcTagBits|tag while claimed; 0 while free
	_ [120]byte
}

const (
	// fcTagBits is the width of the claim tag in a slot's packed word.
	fcTagBits = 16
	fcTagMask = 1<<fcTagBits - 1
	// fcAmountCap bounds a publishable amount so the packed word cannot
	// collide with the tag; larger amounts take the blocking locked path.
	fcAmountCap = uint64(1) << 47
)

// fcTagSeq cycles claim tags process-wide; fcTag never returns zero, so
// a claimed slot's word is never zero.
var fcTagSeq atomic.Uint32

func fcTag() uint64 {
	for {
		if t := uint64(fcTagSeq.Add(1)) & fcTagMask; t != 0 {
			return t
		}
	}
}

// ensure returns the slot array, allocating it on first use. Called with
// the engine mutex held (mirrors ShardedCounter.cells: the count is
// captured exactly once per array, under the lock).
func (f *fcSlots) ensureLocked(stripes int) *[]fcSlot {
	if p := f.slots.Load(); p != nil {
		return p
	}
	f.drained = make([]uint64, stripes)
	s := make([]fcSlot, stripes)
	f.slots.Store(&s)
	return &s
}

// claim publishes amount into a free slot and returns the slot and its
// token, or (nil, 0) when every probed slot is taken, the array is not
// allocated yet, or the amount exceeds the packed cap — the caller then
// falls back to the blocking locked path. Lock-free.
func (f *fcSlots) claim(amount uint64) (*fcSlot, uint64) {
	if amount >= fcAmountCap {
		return nil, 0
	}
	p := f.slots.Load()
	if p == nil {
		return nil, 0
	}
	slots := *p
	mask := uint64(len(slots) - 1)
	token := amount<<fcTagBits | fcTag()
	idx := stripeIndex(mask)
	for probe := 0; probe < len(slots); probe++ {
		s := &slots[(idx+uint64(probe))&mask]
		if s.v.Load() == 0 && s.v.CompareAndSwap(0, token) {
			return s, token
		}
	}
	return nil, 0
}

// collectLocked is phase one of the two-phase fold: it reads every
// claimed slot's token WITHOUT freeing it and returns the summed deltas
// plus how many publications it collected, recording per slot what it
// read so releaseLocked can free exactly those slots. The snapshot is
// stable: a publisher writes a claimed slot exactly once (the free→token
// CAS) and only a lock holder ever clears one, so while the engine mutex
// is held every token read here stays put until phase two. A claim
// published after its slot is read simply waits for the next lock holder
// (or its publisher's own TryLock), which the claim protocol allows.
//
// The caller must store the combined value — and take any
// overflow panic — BEFORE calling releaseLocked: freeing a slot is what
// lets its spinning publisher return from Increment, so it must
// happen-after the value store or a publisher could return while Value()
// is still stale. Called with the engine mutex held. The sum cannot
// wrap: each delta is below fcAmountCap (2^47) and the array holds at
// most a few dozen slots.
func (f *fcSlots) collectLocked() (sum uint64, count uint64) {
	p := f.slots.Load()
	if p == nil {
		return 0, 0
	}
	for i := range *p {
		// A plain load, no RMW: an empty slot stays a shared cache-line
		// read, so the uncontended pass costs k loads, not k bus locks.
		tok := (*p)[i].v.Load()
		f.drained[i] = tok
		if tok != 0 {
			sum += tok >> fcTagBits
			count++
		}
	}
	return sum, count
}

// releaseLocked is phase two: it frees every slot collectLocked
// recorded, publishing the fold to the spinning publishers. Called with
// the engine mutex still held, after the combined value is stored. On an
// overflow panic the caller skips this call, leaving the collected slots
// claimed: the deltas are neither lost nor falsely acknowledged — each
// publisher keeps spinning, eventually takes the lock itself, and hits
// the same overflow panic instead of returning success for an increment
// that never landed.
func (f *fcSlots) releaseLocked() {
	p := f.slots.Load()
	if p == nil {
		return
	}
	for i := range *p {
		if f.drained[i] != 0 {
			f.drained[i] = 0
			(*p)[i].v.Store(0)
		}
	}
}

// listIndex is the sorted singly-linked list of the paper's section 7,
// shared by Counter and every stripe of the striped index: ascending by
// level, never-satisfied nodes only — an increment moves its satisfied
// prefix to a draining record via pop, so the list is exactly the set
// of live waited-on levels.
type listIndex struct {
	head *waitNode
}

// acquire finds or splices in the node for level with a single walk.
func (l *listIndex) acquire(w *waitlist, level uint64) (*waitNode, bool) {
	p := &l.head
	for *p != nil && (*p).level < level {
		p = &(*p).next
	}
	if n := *p; n != nil && n.level == level {
		return n, false
	}
	n := newWaitNode(w, level)
	n.next = *p
	*p = n
	return n, true
}

func (l *listIndex) drop(n *waitNode) {
	for p := &l.head; *p != nil; p = &(*p).next {
		if *p == n {
			*p = n.next
			n.next = nil
			return
		}
	}
}

// pop unlinks the prefix of nodes whose level the new value covers. No
// allocation: the prefix is cut off the list in place and handed to the
// caller (ultimately wakeBatch) as-is, still linked in ascending order.
func (l *listIndex) pop(value uint64) *waitNode {
	head := l.head
	if head == nil || head.level > value {
		return nil
	}
	last := head
	for last.next != nil && last.next.level <= value {
		last = last.next
	}
	l.head = last.next
	last.next = nil
	return head
}

func (l *listIndex) empty() bool { return l.head == nil }

var _ levelIndex = (*listIndex)(nil)
