// Package derived implements traditional synchronization mechanisms ON
// TOP of monotonic counters, demonstrating the paper's section 8 point
// that one counter operation often corresponds to many traditional
// synchronization operations, and that counters integrate with (indeed,
// subsume much of) the traditional repertoire:
//
//   - Event: a manual-reset event is a counter used at level 1.
//   - Latch: a count-down latch (java.util.concurrent's CountDownLatch)
//     is a counter checked at its target.
//   - Barrier: a cyclic barrier is a counter incremented once per arrival
//     and checked at n*round — the counter's multiple suspension queues
//     let threads from different rounds coexist without the generation
//     bookkeeping a condvar barrier needs.
//   - Sequencer: admission in ticket order (the Disruptor-style pattern),
//     a counter checked at each ticket.
//   - Quorum: a k-of-n wait — open once any k of n members reach a
//     threshold — built on the predicate layer (internal/predicate),
//     which no single-counter Check can express.
//
// None of these exhaust the counter: they all use it at a single level or
// a fixed stride, whereas dataflow programs (sections 4-5) exploit
// arbitrary level sets. The multi-counter composites (Quorum, AllOpened,
// AnyOpened, Barrier.Reached) park one shared sentinel per watched
// counter, so any number of waiters cost O(counters) nodes.
package derived

import (
	"context"
	"sync"
	"sync/atomic"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// checkedMul returns a*b, panicking on uint64 overflow. Like core's
// checkedAdd, a wrapped product would silently break monotonicity — a
// barrier level computed modulo 2^64 could sit BELOW the counter and
// admit every party instantly — so overflow is a programming error, not
// a wraparound.
func checkedMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/a != b {
		panic("derived: barrier level overflow")
	}
	return p
}

// Event is a one-shot manual-reset event built on a counter: Set is
// Increment(1), Check is Check(1). Once set it stays set — exactly the
// monotonicity an event needs.
type Event struct {
	c core.Counter
}

// NewEvent returns an unset event.
func NewEvent() *Event { return new(Event) }

// Set signals the event; extra Sets are harmless (the level only needs
// reaching once).
func (e *Event) Set() {
	// An event may be Set many times; guard the counter against
	// unbounded growth is unnecessary (uint64), but keep Set idempotent
	// in effect: any value >= 1 means "set".
	e.c.Increment(1)
}

// Check suspends until the event is set.
func (e *Event) Check() { e.c.Check(1) }

// Latch is a count-down latch for n parties: each Done is an Increment,
// opening is the counter reaching n. (The paper's counter counts up; a
// "count-down" latch is the same object viewed from the other end.)
// Waiting goes through a shared predicate condition rather than a bare
// Check so latches compose: AllOpened and AnyOpened wait on several
// latches at once, and WaitContext cancels like any predicate wait.
type Latch struct {
	c core.Counter
	n uint64

	once sync.Once
	cond *predicate.Cond
}

// NewLatch returns a latch that opens after n Done calls. n may be zero,
// in which case Wait never suspends.
func NewLatch(n int) *Latch {
	if n < 0 {
		panic("derived: NewLatch requires n >= 0")
	}
	return &Latch{n: uint64(n)}
}

// Done records one completion.
func (l *Latch) Done() { l.c.Increment(1) }

// opened lazily builds the latch's shared condition — a latch nobody
// waits on never arms a sentinel.
func (l *Latch) opened() *predicate.Cond {
	l.once.Do(func() {
		l.cond = predicate.NewCond(predicate.Thresholds([]uint64{l.n}, 1), &l.c)
	})
	return l.cond
}

// Wait suspends until n completions have been recorded. All waiters
// share one condition, so they cost one parked sentinel, not one node
// each.
func (l *Latch) Wait() {
	if err := l.opened().Wait(context.Background()); err != nil {
		panic("derived: latch wait failed: " + err.Error()) // unreachable: background ctx
	}
}

// WaitContext is Wait with cancellation; an opened latch beats a
// cancelled context.
func (l *Latch) WaitContext(ctx context.Context) error {
	return l.opened().Wait(ctx)
}

// Opened reports whether the latch has opened, without blocking.
func (l *Latch) Opened() bool { return l.opened().Poll() }

// AllOpened returns a condition that holds once every given latch has
// opened — a barrier over latches. The condition parks one sentinel per
// still-closed latch, shared by all its waiters; wait on it with Wait
// (blocking) or Poll.
func AllOpened(latches ...*Latch) *predicate.Cond {
	return latchCond(latches, len(latches))
}

// AnyOpened returns a condition that holds once at least one of the
// given latches has opened.
func AnyOpened(latches ...*Latch) *predicate.Cond {
	return latchCond(latches, 1)
}

func latchCond(latches []*Latch, k int) *predicate.Cond {
	if len(latches) == 0 {
		panic("derived: no latches to wait on")
	}
	levels := make([]uint64, len(latches))
	cs := make([]core.Sentineler, len(latches))
	for i, l := range latches {
		levels[i] = l.n
		cs[i] = &l.c
	}
	return predicate.NewCond(predicate.Thresholds(levels, k), cs...)
}

// Barrier is a cyclic barrier for n parties built on one counter: the
// r-th crossing completes when the counter reaches n*r. Each party tracks
// its own round locally, so no generation flag or reset is needed — the
// counter's per-level queues do that bookkeeping for free.
type Barrier struct {
	c core.Counter
	n uint64
}

// NewBarrier returns a counter-based barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("derived: NewBarrier requires n >= 1")
	}
	return &Barrier{n: uint64(n)}
}

// Party is one participant's handle; each party must use its own.
type Party struct {
	b     *Barrier
	round uint64
}

// Register returns a participant handle.
func (b *Barrier) Register() *Party { return &Party{b: b} }

// Pass blocks until all n parties have passed this round.
func (p *Party) Pass() {
	p.round++
	p.b.c.Increment(1)
	// The level must be computed overflow-checked: n*round wrapping
	// modulo 2^64 could land BELOW the counter's value and wave the
	// party through a barrier nobody else reached. (The counter itself
	// would overflow first in any run that actually gets there — this
	// guards the computed level, which overflows n times sooner.)
	p.b.c.Check(checkedMul(p.b.n, p.round))
}

// Reached returns a condition that holds once round has completed (the
// counter has reached n*round) — an observer's view of the barrier,
// shared by any number of waiters without registering a party. Round
// numbers start at 1; round 0 trivially holds.
func (b *Barrier) Reached(round uint64) *predicate.Cond {
	return predicate.NewCond(
		predicate.Thresholds([]uint64{checkedMul(b.n, round)}, 1), &b.c)
}

// Sequencer admits goroutines in ticket order: Next hands out tickets,
// Await admits when the predecessor completes. It is the section 5.2
// ordering pattern packaged as an object.
type Sequencer struct {
	c    core.Counter
	next atomic.Uint64
}

// NewSequencer returns a sequencer whose first ticket is 0.
func NewSequencer() *Sequencer { return new(Sequencer) }

// Next reserves and returns the caller's ticket.
func (s *Sequencer) Next() uint64 {
	return s.next.Add(1) - 1
}

// Await suspends until every ticket before `ticket` has completed.
func (s *Sequencer) Await(ticket uint64) { s.c.Check(ticket) }

// Complete marks the caller's ticket done, admitting the next one. It
// must be called exactly once per ticket, in possession of that ticket's
// turn (i.e. after Await returned).
func (s *Sequencer) Complete() { s.c.Increment(1) }

// Do runs f in ticket order: it reserves a ticket, awaits its turn, runs
// f, and completes. Completion is deferred, so a panic in f propagates
// to the caller but does NOT wedge the sequencer: later tickets still
// get their turn. (Without the defer, one panicking f would leave its
// ticket forever incomplete and every later Await suspended.)
func (s *Sequencer) Do(f func()) {
	t := s.Next()
	s.Await(t)
	defer s.Complete()
	f()
}

// Quorum is a k-of-n wait built on the predicate layer: n member
// counters, open once at least k of them reach a threshold. It is the
// derived-object face of the paper's storage argument lifted one tier:
// any number of goroutines waiting on one Quorum park one shared
// sentinel per member, not one node per waiter per member.
type Quorum struct {
	members []core.Counter
	cond    *predicate.Cond
}

// NewQuorum returns a quorum over n member counters that opens once at
// least k members have reached threshold. 1 <= k <= n is required;
// k = n is a join (all members), k = 1 an any-of wait.
func NewQuorum(n, k int, threshold uint64) *Quorum {
	if n < 1 {
		panic("derived: NewQuorum requires n >= 1")
	}
	// Thresholds validates 1 <= k <= n.
	members := make([]core.Counter, n)
	levels := make([]uint64, n)
	cs := make([]core.Sentineler, n)
	for i := range members {
		levels[i] = threshold
		cs[i] = &members[i]
	}
	q := &Quorum{members: members}
	q.cond = predicate.NewCond(predicate.Thresholds(levels, k), cs...)
	return q
}

// Arrive records one unit of progress by member i.
func (q *Quorum) Arrive(i int) { q.members[i].Increment(1) }

// Add records amount units of progress by member i.
func (q *Quorum) Add(i int, amount uint64) { q.members[i].Increment(amount) }

// Wait suspends until the quorum opens.
func (q *Quorum) Wait() {
	if err := q.cond.Wait(context.Background()); err != nil {
		panic("derived: quorum wait failed: " + err.Error()) // unreachable: background ctx
	}
}

// WaitContext is Wait with cancellation; an open quorum beats a
// cancelled context.
func (q *Quorum) WaitContext(ctx context.Context) error {
	return q.cond.Wait(ctx)
}

// Reached reports whether the quorum has opened, without blocking.
func (q *Quorum) Reached() bool { return q.cond.Poll() }

// Cond exposes the quorum's underlying condition for composition and
// for mechanism accounting (Stats) in tests and experiments.
func (q *Quorum) Cond() *predicate.Cond { return q.cond }
