package predicate

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"monotonic/internal/core"
)

// Cond is one monotone-predicate wait shared by any number of waiters:
// a one-shot condition that becomes (and stays) satisfied once its
// predicate holds over its counters. Waiters park on a single done
// channel, so the wake fan-out for N waiters is one channel close —
// the sentinel bookkeeping is per watched counter, never per waiter.
//
// Lifecycle: sentinels are armed lazily by the first Wait (a Cond that
// is never waited on costs nothing), re-armed on a kick only where a
// frontier moved or a sentinel fired, and cancelled when the last
// waiter abandons the wait — a fully cancelled Cond leaves no trace on
// its counters, so their Reset works again. A satisfied Cond is
// terminal. Like a plain Check, a Cond must not span a Reset of any
// watched counter: build a new Cond for the new phase. An owner that
// registers one predicate after another (counterd's parked waits) can
// Renew a quiescent Cond in place instead of building a new one.
//
// Lock order: Cond.mu is taken strictly above any counter-internal
// lock (Watermark, ArmHook and Hook.Cancel are called with Cond.mu
// held). The engine calls back into the Cond only through the
// slots' Fire kicks, which run with no counter lock held and only
// TryLock Cond.mu, so a kick never waits for the evaluator and never
// inverts the order.
type Cond struct {
	pred Pred
	cs   []core.Sentineler

	mu sync.Mutex
	// done is closed at satisfaction. It is made only when a Wait parks
	// or Done is called, so a Cond that only firers observe (counterd's)
	// never makes one.
	done chan struct{}
	// satisfied is set once, at satisfaction, with mu held; it is
	// terminal, so Wait's and Poll's fast paths read it without mu.
	satisfied atomic.Bool
	started   bool // sentinels armed (some Wait has begun and not all waiters left)
	waiters   int
	armed     []sentinel
	vals      []uint64 // scratch: last-read bounds
	fronts    []uint64 // scratch: frontier levels

	// firers holds what Arm registered, which Disarm finds by identity;
	// an armed firer counts as a waiter for keep-armed purposes.
	// counterd arms one per Cond, so a slice beats a map.
	firers []core.Firer

	// ext, when non-nil, is the external arming strategy: one
	// registration with a remote evaluator replaces the per-counter
	// sentinels (see InitExternal). Cleared for good only when the
	// host refuses a registration.
	ext       External
	extArmed  bool
	extCancel func() bool
	extGen    uint64 // registration generation, so a stale fire cannot clobber a newer one

	// fires counts sentinel hook fires — the kicks delivered on wake
	// paths. Atomic: it is the only Cond state a signaller touches.
	fires atomic.Uint64
	// arms and reparks count sentinel registrations, total and beyond
	// each counter's first; guarded by mu.
	arms    uint64
	reparks uint64
}

// sentinel is one watched counter's slot. At most one registration
// per slot is outstanding at a time, so the slot's hook, spent and
// level always describe that registration. The registration is the
// slot's own embedded hook, re-armed in place on whatever counter the
// slot watches, so a frontier move allocates nothing beyond what the
// counter's arming costs (nothing on an engine level that has a node).
type sentinel struct {
	hook  core.Hook // bound to the slot when its storage is made
	c     *Cond
	level uint64      // the level the outstanding registration watches
	spent atomic.Bool // set by Fire: the registration is gone
	on    bool        // a registration is outstanding (its fire, if any, not yet collected)
	seen  bool        // this counter has been armed at least once (repark accounting)
}

// NewCond returns an unsatisfied Cond waiting for pred over the given
// counters: Renew on a zero Cond, so it copies pred's levels and the
// counters, and the caller keeps both. The counters' order is the
// coordinate order pred sees. It panics unless pred.Validate accepts
// the counter count.
func NewCond(pred Pred, counters ...core.Sentineler) *Cond {
	c := new(Cond)
	c.Renew(pred, counters...)
	return c
}

// Renew re-initializes c in place to wait for pred over counters and
// reports whether it did. It copies pred's levels and the counters into
// the storage c already holds, so the caller keeps both, and reuses c's
// slots (their hooks stay bound), scratch and firer storage: renewing a
// Cond over no more counters than it has watched allocates nothing (but
// the levels' storage the first time a threshold follows only sums),
// and its done channel is made only if a Wait parks or Done is called.
// A zero Cond watches nothing and is quiescent, so Renew readies one,
// allocating its storage; that is how NewCond builds every Cond.
//
// Renew refuses, changing nothing, unless c is quiescent: settled, or
// abandoned by its last waiter, with no Wait under way, no armed
// firer, no external strategy (InitExternal's, even one it has
// dropped), and no sentinel still due to fire. A sentinel whose cancel
// lost to its fire stays outstanding until the fire marks its slot
// spent: until then the engine holds its hook detached but not yet
// fired, so re-arming the hook would corrupt the engine's hook chain
// and the fire would land on the new registration. A refused Cond can be renewed once the fire
// lands; a kick still running from it afterwards is a spurious kick,
// which an evaluation absorbs.
//
// The caller must own c outright: Renew overwrites the levels and
// counters storage c holds and the done channel Done returned, so no
// one else may still wait on, arm, poll or observe c. It panics unless
// pred.Validate accepts the counter count.
func (c *Cond) Renew(pred Pred, counters ...core.Sentineler) bool {
	if err := pred.Validate(len(counters)); err != nil {
		panic(err.Error())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiters > 0 || len(c.firers) > 0 || c.ext != nil || c.extGen != 0 || c.started && !c.satisfied.Load() {
		return false
	}
	for i := range c.armed {
		if s := &c.armed[i]; s.on && !s.spent.Load() {
			return false // its fire is on its way
		}
	}
	// A sum keeps the levels' storage too, at length zero, for the next
	// threshold.
	levels := append(c.pred.Levels[:0], pred.Levels...)
	c.pred = pred
	c.pred.Levels = levels
	c.cs = append(c.cs[:0], counters...)
	c.reset()
	return true
}

// Cap reports how many counters c can watch after a Renew without
// growing its storage: the most it has watched. It reads only what
// Renew sets, so c's owner may call it without the Cond's lock.
func (c *Cond) Cap() int { return cap(c.armed) }

// reset readies c to wait afresh over c.cs: one clean slot per counter,
// grown (and bound) only past the slots it already has, the scratch to
// match, no done channel yet and zeroed mechanism counters. Called by
// Renew with mu held on a quiescent Cond.
func (c *Cond) reset() {
	n := len(c.cs)
	if cap(c.armed) < n {
		c.armed = make([]sentinel, n)
		for i := range c.armed {
			s := &c.armed[i]
			s.c = c
			s.hook.Bind(s)
		}
		scratch := make([]uint64, 2*n)
		c.vals, c.fronts = scratch[:n:n], scratch[n:]
	}
	c.armed, c.vals, c.fronts = c.armed[:n], c.vals[:n], c.fronts[:n]
	for i := range c.armed {
		s := &c.armed[i]
		s.level, s.on, s.seen = 0, false, false
		s.spent.Store(false)
	}
	c.done = nil
	c.satisfied.Store(false)
	c.started = false
	c.fires.Store(0)
	c.arms, c.reparks = 0, 0
}

// External is an alternative arming strategy: instead of parking one
// sentinel per watched counter at pigeonhole frontiers, the Cond makes
// a single registration with an external evaluator (a counterd holding
// every watched counter) that watches the whole predicate. The host
// must evaluate at registration time and fire if the predicate already
// holds — a registration must never lose a wake — and must eventually
// call fire exactly once unless cancel prevents it.
//
// fire(true) is authoritative satisfaction: the host observed the
// predicate holding over values at least as large as every local lower
// bound, and monotonicity makes that terminal. fire(false) is a kick,
// like a sentinel fire: the registration died without an answer
// (connection lost, host retired), so the Cond forgets it, re-evaluates
// and asks the strategy again. Monotonicity makes the re-ask safe, since
// the host cannot observe a smaller value. Only a refusal (ok == false)
// moves the Cond to per-counter sentinels, for the rest of its life.
// fire may be called from any goroutine and must not block; cancel
// reports whether fire was prevented.
//
// Both the strategy itself and the cancel it returns are invoked with
// the Cond's internal lock held — they sit exactly where ArmHook and
// Hook.Cancel sit in per-counter arming — so they must not block on
// network round trips (enqueue and return) and must not call back into
// the Cond.
type External func(fire func(satisfied bool)) (cancel func() bool, ok bool)

// InitExternal readies the zero Cond c, as NewCond readies a new one,
// to wait for pred over counters with an external arming strategy:
// while ext is willing, c parks one remote registration instead of
// len(counters) sentinels, and frontier moves cost nothing locally. A
// registration lost without an answer is asked for again; the first
// refusal falls back to sentinels. Local evaluation still runs first on
// every Wait/Poll — a predicate already satisfied by the counters' own
// lower bounds settles without consulting ext — so
// satisfied-beats-cancelled determinism is unchanged. It panics on a
// nil ext or a Cond Renew would refuse.
func (c *Cond) InitExternal(pred Pred, ext External, counters ...core.Sentineler) {
	if ext == nil || !c.Renew(pred, counters...) {
		panic("predicate: InitExternal needs a strategy and a zero Cond")
	}
	c.ext = ext
}

// Fire is the slot's kick, its hook's Firer: it runs on the waking
// goroutine with no counter lock held, marks the slot spent (its
// registration is gone, so the next evaluation re-arms it if the
// counter still needs a sentinel) and re-evaluates. The evaluation runs
// right there when Cond.mu is free, so the incrementer that fired the
// slot also settles the Cond and releases its waiters; when the lock is
// held (a Wait, a Poll or another kick is evaluating) Fire hands the
// kick to a short-lived goroutine instead, so it never blocks. Between
// kicks the Cond holds no goroutine at all.
func (s *sentinel) Fire() {
	c := s.c
	c.fires.Add(1) // before spent: once a slot reads spent, Renew may zero fires
	s.spent.Store(true)
	if c.mu.TryLock() {
		c.kickLocked()
		c.mu.Unlock()
		return
	}
	go c.kick()
}

// kick is the goroutine form of a sentinel kick, for a hook that found
// Cond.mu held.
func (c *Cond) kick() {
	c.mu.Lock()
	c.kickLocked()
	c.mu.Unlock()
}

// kickLocked re-evaluates after a sentinel fire. If every waiter has
// since abandoned the wait (started dropped), the kick is moot: the
// fired slot stays spent, and the next Wait re-arms it. Called with mu
// held.
func (c *Cond) kickLocked() {
	if c.started && !c.satisfied.Load() {
		c.evaluateLocked()
	}
}

// extKick is the goroutine form of an external registration's kick, for
// a fire that found Cond.mu held.
func (c *Cond) extKick(gen uint64, satisfied bool) {
	c.mu.Lock()
	c.extKickLocked(gen, satisfied)
	c.mu.Unlock()
}

// extKickLocked applies an external registration's answer, on the
// host's delivering goroutine when Cond.mu was free (see hook). A
// satisfied fire settles the Cond no matter how old the registration
// is — the host observed the predicate holding over values dominating
// every local lower bound, and monotone truth never expires. An
// unsatisfied fire (registration died without an answer) only acts if
// it belongs to the current registration: the Cond forgets it and
// re-evaluates, which asks the strategy again and falls back to
// sentinels only if that ask is refused. A stale unsatisfied fire — a
// cancelled registration's last breath racing a newer one — is dropped.
// Called with mu held.
func (c *Cond) extKickLocked(gen uint64, satisfied bool) {
	if c.satisfied.Load() {
		return
	}
	if satisfied {
		c.satisfyLocked()
		return
	}
	if gen != c.extGen || !c.extArmed {
		return
	}
	c.extArmed = false
	c.extCancel = nil
	if c.started {
		c.evaluateLocked()
	}
}

// satisfyLocked settles the Cond: cancel whatever is still armed,
// release every waiter with one channel close (if any made the
// channel), and fire the armed firers, keeping the firer slice's
// storage for a Renew. Called with mu held; firers therefore run under
// the Cond's lock and must honour the Arm contract (fast, no re-entry).
func (c *Cond) satisfyLocked() {
	c.satisfied.Store(true)
	c.disarmLocked()
	if c.done != nil {
		close(c.done)
	}
	for _, f := range c.firers {
		f.Fire()
	}
	clear(c.firers)
	c.firers = c.firers[:0]
}

// disarmLocked cancels every outstanding sentinel and any external
// registration. A sentinel whose cancel reports false is already
// firing: its slot stays outstanding, settled Cond or not, until the
// fire marks it spent, so the slot's hook never has two registrations
// in flight — within one registration, and across a Renew, which waits
// for the fire. Called with mu held.
func (c *Cond) disarmLocked() {
	for i := range c.armed {
		s := &c.armed[i]
		if s.on && (s.spent.Load() || s.hook.Cancel()) {
			s.on = false
		}
	}
	if c.extArmed {
		c.extArmed = false
		cancel := c.extCancel
		c.extCancel = nil
		cancel()
	}
}

// evaluateLocked reads fresh bounds, settles the Cond if the predicate
// holds, and otherwise makes sure one sentinel per still-unsatisfied
// coordinate is parked at the predicate's frontier level. Called with
// mu held. The bound reads (Watermark) and the frontier re-arms
// (ArmHook) are both lock-free against the counters' engines —
// Watermark takes no lock and a re-arm registers on the frontier
// level's stripe — so holding Cond.mu across the pass does not
// serialize the evaluator against incrementers on any engine mutex.
//
// A pass re-arms only what moved. A slot whose sentinel fired (spent)
// is re-armed if its counter still needs one, at the same level after a
// spurious fire; an armed, unspent slot still at its frontier is kept;
// one whose frontier moved is cancelled and re-armed. So a kick on a
// k-of-n threshold, whose frontiers never move, re-arms nothing. A
// cancel that reports false leaves its slot outstanding: that sentinel
// is already firing, and its own kick re-arms the slot. The loop
// re-runs only when a counter advanced past its frontier while arming
// (ArmHook reported not-armed), which strictly raises the next pass's
// bounds, so it terminates.
func (c *Cond) evaluateLocked() {
	// External strategy: one remote registration replaces the whole
	// sentinel set, and — because the registration watches the complete
	// predicate, not a frontier slice of it — it never needs re-parking:
	// once armed, every future evaluation happens at the host. Local
	// bounds are still consulted first so an already-satisfied predicate
	// settles without a registration.
	if c.ext != nil {
		if c.pred.Holds(c.readLocked()) {
			c.satisfyLocked()
			return
		}
		if c.extArmed {
			return
		}
		c.extGen++
		gen := c.extGen
		fire := func(satisfied bool) {
			c.fires.Add(1)
			if c.mu.TryLock() {
				c.extKickLocked(gen, satisfied)
				c.mu.Unlock()
				return
			}
			go c.extKick(gen, satisfied)
		}
		if cancel, ok := c.ext(fire); ok {
			c.extArmed = true
			c.extCancel = cancel
			c.arms++
			return
		}
		c.ext = nil // host refused: per-counter sentinels from here on
	}
	for {
		if c.pred.Holds(c.readLocked()) {
			c.satisfyLocked()
			return
		}
		c.pred.Frontiers(c.vals, c.fronts)
		stale := false
		for i, ctr := range c.cs {
			s := &c.armed[i]
			if s.on && s.spent.Load() {
				s.on = false // fired: nothing left to cancel
			}
			level := c.fronts[i]
			if level <= c.vals[i] {
				level = 0 // coordinate already satisfied: no sentinel
			}
			if s.on {
				if s.level == level || !s.hook.Cancel() {
					continue // still at its frontier, or firing already
				}
				s.on = false
			}
			if level == 0 {
				continue
			}
			s.spent.Store(false)
			if !ctr.ArmHook(level, &s.hook) {
				// The counter crossed the frontier between the Watermark
				// read and the registration; the frontiers are stale,
				// so run the pass again with fresh bounds.
				stale = true
				break
			}
			c.arms++
			if s.seen {
				c.reparks++
			}
			s.level, s.on, s.seen = level, true, true
		}
		if !stale {
			return
		}
	}
}

// enterLocked is the first step of every Wait and Arm: it settles the
// Cond if the predicate holds and otherwise makes sure its sentinels
// are armed, reporting whether the caller must park. Called with mu
// held.
func (c *Cond) enterLocked() bool {
	if !c.satisfied.Load() {
		if !c.started {
			c.started = true
			c.evaluateLocked()
		} else if c.pred.Holds(c.readLocked()) {
			// Already armed by an earlier waiter: a cheap re-check (no
			// re-arm) keeps "satisfied beats cancelled" exact even when
			// a kick is still in flight — on its way to this lock, or
			// handed to a goroutine because this lock was held.
			c.satisfyLocked()
		}
	}
	return !c.satisfied.Load()
}

// leaveLocked is the last step of a Wait that gives up and of a
// Disarm: the last waiter out turns off the lights, so no sentinel
// stays parked for a wait nobody is waiting on. An armed firer counts
// as a waiter — it stands for a remote session still blocked on this
// predicate. Called with mu held.
func (c *Cond) leaveLocked() {
	if c.waiters == 0 && len(c.firers) == 0 && c.started && !c.satisfied.Load() {
		c.disarmLocked()
		c.started = false
	}
}

// Wait blocks until the predicate holds or ctx is cancelled. A
// satisfied predicate beats a cancelled context — Wait evaluates before
// consulting ctx, and re-checks satisfaction when the two race — and
// cancellation leaves no trace: when the last waiter gives up, every
// sentinel is cancelled (one already firing retires itself as it
// fires) and the watched counters are exactly as if the Cond never
// existed. Any number of goroutines may Wait concurrently; all are
// released by the single satisfying evaluation, which usually runs on
// the goroutine whose increment flipped the predicate.
func (c *Cond) Wait(ctx context.Context) error {
	if c.satisfied.Load() {
		// Already satisfied: the flag is the Cond's watermark — set
		// exactly once, at satisfaction, which is terminal — so a Wait on
		// a settled Cond returns without touching Cond.mu, the
		// predicate-tier analogue of the counters' lock-free satisfied
		// Check.
		return nil
	}
	c.mu.Lock()
	if !c.enterLocked() {
		c.mu.Unlock()
		return nil
	}
	c.waiters++
	done := c.doneLocked()
	c.mu.Unlock()

	select {
	case <-done:
		c.mu.Lock()
		c.waiters--
		c.mu.Unlock()
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		defer c.mu.Unlock()
		c.waiters--
		if c.satisfied.Load() {
			return nil // satisfaction and cancellation raced: satisfied wins
		}
		c.leaveLocked()
		return ctx.Err()
	}
}

// Arm registers f to fire exactly once when the Cond settles, without
// parking a goroutine — the callback analogue of Wait, built for
// counterd's parked waits, where one Cond entry must stand in for a
// whole remote session's wait. f is caller-owned, as a core.Hook's
// Firer is, and Disarm finds it by identity, so it must be a pointer,
// armed at most once per Cond. Arm evaluates immediately: if the
// predicate already holds (settling the Cond if needed) it reports
// false and f never fires — the caller answers the waiter directly.
// Otherwise f fires on the satisfying goroutine with the Cond's lock
// held, so it must not block or call back into the Cond (the
// discipline of a sentinel hook). While any armed firer remains, the
// Cond keeps its sentinels parked even if every Wait goroutine has left.
func (c *Cond) Arm(f core.Firer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enterLocked() {
		return false
	}
	c.firers = append(c.firers, f)
	return true
}

// Disarm cancels f's Arm registration, reporting true if f had not
// fired and now never will, false if satisfaction took it or it was
// never armed here. The last firer's Disarm, with no Wait goroutine
// left, cancels the sentinels as the last waiter's leaving does.
func (c *Cond) Disarm(f core.Firer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.Index(c.firers, f)
	if i < 0 {
		return false
	}
	c.firers = slices.Delete(c.firers, i, i+1)
	c.leaveLocked()
	return true
}

// readLocked refreshes and returns the value bounds. Called with mu
// held.
func (c *Cond) readLocked() []uint64 {
	for i, ctr := range c.cs {
		c.vals[i] = ctr.Watermark()
	}
	return c.vals
}

// Poll reports whether the predicate holds right now, settling the Cond
// (and releasing any waiters) if it does. It never arms sentinels and
// never blocks — the zero/negative-timeout analogue of Wait.
func (c *Cond) Poll() bool {
	if c.satisfied.Load() {
		return true // settled: no lock needed (see Wait)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.satisfied.Load() {
		return true
	}
	if c.pred.Holds(c.readLocked()) {
		c.satisfyLocked()
		return true
	}
	return false
}

// Done returns a channel closed when the predicate holds. It does NOT
// arm the Cond: a Done-only observer sees satisfaction only once some
// Wait or Poll has driven evaluation. It exists for composing a Cond
// into selects alongside a Wait elsewhere.
func (c *Cond) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneLocked()
}

// doneLocked returns the done channel, making it on first use, closed
// already if c is satisfied. Called with mu held.
func (c *Cond) doneLocked() chan struct{} {
	if c.done == nil {
		c.done = make(chan struct{})
		if c.satisfied.Load() {
			close(c.done)
		}
	}
	return c.done
}

// CondStats is a snapshot of a Cond's mechanism counters, for tests,
// the E24 experiment and counter/wait, whose Stats is this type.
type CondStats struct {
	Fires     uint64 // sentinel/external hook fires (re-evaluation kicks)
	Arms      uint64 // sentinel + external registrations, total
	Reparks   uint64 // registrations beyond each counter's first — frontier moves
	Armed     int    // sentinels currently armed
	Waiters   int    // goroutines currently blocked in Wait
	Hooks     int    // firers currently armed via Arm
	External  bool   // an external registration is currently armed
	Satisfied bool
}

// Stats returns a snapshot of the Cond's mechanism counters.
func (c *Cond) Stats() CondStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CondStats{
		Fires:     c.fires.Load(),
		Arms:      c.arms,
		Reparks:   c.reparks,
		Waiters:   c.waiters,
		Hooks:     len(c.firers),
		External:  c.extArmed,
		Satisfied: c.satisfied.Load(),
	}
	for i := range c.armed {
		if c.armed[i].on && !c.armed[i].spent.Load() {
			s.Armed++
		}
	}
	return s
}
