package remote

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"monotonic/counter"
	cwait "monotonic/counter/wait"
	"monotonic/internal/core"
	"monotonic/internal/wire"
)

// Counter is a named monotonic counter hosted by a counterd server,
// obtained from Client.Counter. It implements the same counter.Interface
// as the in-process types, with the same semantics: monotone value,
// satisfied-beats-cancelled, cancellation never perturbs the counter,
// Reset panics under suspended waiters (the server refuses and the
// client relays the refusal as a panic). Counters with the same name
// across clients are one counter.
//
// Cost model on the wire: Increment is fire-and-forget (pipelined and
// batched, no per-call round trip); a Check whose level the client has
// already observed satisfied returns immediately with no wire traffic
// at all — monotonicity means a level seen satisfied once is satisfied
// forever, so the client keeps a local watermark. Only a genuinely
// blocking wait costs a round trip, one per level: the client's blocking
// waits on one level share one OpCheck, one server-side wait and one
// OpWake. Any number of outstanding waits share the client's two
// goroutines.
type Counter struct {
	cl   *Client
	name string

	// known is the client-local satisfied watermark: the highest level
	// this client has proof the hosted value reached, raised only by an
	// OpWake's level. Safe precisely because the value is monotonic.
	known atomic.Uint64

	immediate atomic.Uint64 // checks satisfied by the watermark; see Stats
	joined    atomic.Uint64 // blocking waits that joined a parked level; see Stats
	rtts      atomic.Uint64 // completed wire exchanges
	ackMark   uint64        // the Client.acks value that last counted an ack here; guarded by cl.mu
	slot      uint64        // the link's slot this counter was last bound to (see Client.slots); guarded by cl.mu
	ledger    uint64        // the total TryIncrement took since the last Reset; guarded by cl.mu (see Contribution)
	waitNanos atomic.Uint64 // wall-clock nanoseconds blocked on the wire

	probe     atomic.Pointer[func(counter.Event)]
	lastStats atomic.Pointer[counter.Stats] // the last server snapshot; see Stats
}

// The remote counter is interchangeable with the in-process ones.
var (
	_ counter.Interface     = (*Counter)(nil)
	_ counter.StatsProvider = (*Counter)(nil)
	_ core.Sentineler       = (*Counter)(nil)
)

// noteSatisfied raises the satisfied watermark to level (never lowers
// it — concurrent observations may arrive out of order).
func (c *Counter) noteSatisfied(level uint64) {
	for {
		cur := c.known.Load()
		if level <= cur || c.known.CompareAndSwap(cur, level) {
			return
		}
	}
}

func (c *Counter) emit(kind counter.EventKind, level uint64) {
	if p := c.probe.Load(); p != nil {
		(*p)(counter.Event{Kind: kind, Level: level})
	}
}

// Increment atomically increases the hosted counter's value by amount,
// waking every waiter — in any process — whose level the new value
// satisfies. The increment is pipelined: Increment returns as soon as it
// is queued, batched with the increments queued beside it, and a later
// Check on the same client observes it because the server applies a
// session's frames in order. The increment survives
// reconnects exactly once (sequence-numbered, deduplicated
// server-side). If the server rejects an increment (uint64 overflow,
// the same programming error that panics in-process), the client
// latches the error and the next operation panics.
func (c *Counter) Increment(amount uint64) {
	if err := c.TryIncrement(amount); err != nil {
		panic(err.Error())
	}
}

// TryIncrement is Increment for supervisors that own the client's
// lifecycle (the cluster layer, counter/cluster): instead of panicking
// it reports ErrClosed on a closed client and the latched rejection on
// a poisoned one. ErrClosed means the amount was not taken: it entered
// no ledger (see Contribution) and no frame, so a supervisor that
// closed the client to retire its node sends it elsewhere.
// Where the server advertises wire.FeatureBatch, the increment joins the
// OpIncrements frame the client is batching while that frame is the
// last one queued, as one entry of about two bytes once the counter is
// bound to a slot of the link. It waits only while more
// than 2048 increments are queued behind a write in flight, as on a
// stalled link: until the flusher takes them, the link drops or the
// client closes.
func (c *Counter) TryIncrement(amount uint64) error {
	cl := c.cl
	cl.mu.Lock()
	for cl.queued > maxQueue && cl.fatal == nil && !cl.closed {
		cl.room.Wait()
	}
	if cl.fatal != nil {
		fatal := cl.fatal
		cl.mu.Unlock()
		return fatal
	}
	if cl.closed {
		cl.mu.Unlock()
		return ErrClosed
	}
	if amount == 0 {
		cl.mu.Unlock()
		return nil
	}
	c.ledger += amount
	cl.serial++
	p := pendingInc{seq: cl.serial, ctr: c, amount: amount}
	cl.pending = append(cl.pending, p)
	cl.incrementLocked(p)
	cl.mu.Unlock()
	c.emit(counter.EventIncrement, amount)
	return nil
}

// Check suspends the caller until the hosted value is at least level.
// A level this client has already seen satisfied returns immediately
// without touching the network. It is CheckContext with a context that
// is never cancelled.
func (c *Counter) Check(level uint64) {
	if err := c.CheckContext(context.Background(), level); err != nil {
		panic(err.Error()) // only ErrClosed: the client was torn down under us
	}
}

// CheckContext is Check with cancellation: nil once the value reaches
// level, ctx.Err() if the context wins. A satisfied level beats a
// cancelled context — even when the wake and the cancellation race on
// the wire, or a reconnect lost the answer, the server resolves the
// race and the client honors its answer. The wait joins the client's
// other blocking waits on level, as CheckChan's does. The last of them
// to cancel deregisters the server-side waiter, so an abandoned level
// costs nothing in any process; one cancelled while others still wait
// leaves them parked and asks the server again under a fresh id, an
// OpCheck and its OpCancel, so the server still decides the race. It
// returns ErrClosed if the client is closed while waiting. Its reply
// channel is reused, so a wait allocates nothing once the client has
// answered one.
//
// Because the server decides, the context bounds the wait only while
// counterd is reachable: a wait cancelled with the link down returns
// once a link carries counterd's answer to its cancel, or the client
// closes, however long the reconnects take.
func (c *Counter) CheckContext(ctx context.Context, level uint64) error {
	if level <= c.known.Load() {
		c.immediate.Add(1)
		return nil
	}
	// Even an already-cancelled ctx parks the wait: satisfied state
	// lives on the server, so the cancel must race the wait there.
	ch := replies.Get().(chan error)
	id, at := c.checkChan(level, ch)
	var err error
	select {
	case err = <-ch:
	case <-ctx.Done():
		err = c.cancelWait(id, at, ch, ctx.Err())
	}
	replies.Put(ch)
	return err
}

// WaitTimeout is Check bounded by a timeout, reporting whether the
// level was reached; a satisfied level beats an expired deadline. As
// with CheckContext, the deadline holds only while counterd is
// reachable: past it with the link down, the wait returns once a link
// carries counterd's answer to its cancel. If the client closes under
// the wait, WaitTimeout panics with ErrClosed.
func (c *Counter) WaitTimeout(level uint64, d time.Duration) bool {
	if level <= c.known.Load() {
		c.immediate.Add(1)
		return true
	}
	return core.WaitTimeout(c, level, d)
}

// CheckChan is the asynchronous form of Check: it registers the wait
// and returns a channel that receives exactly one value — nil once the
// hosted value reaches level, or ErrClosed if the client is closed
// first. It exists so one goroutine can hold any number of outstanding
// waits (the fan-out experiment E22 parks thousands of waits from a
// handful of goroutines); Check and CheckContext are built on it. The
// first blocking wait on a level sends its OpCheck; each later one, until
// the level is answered, joins that wait-table entry at the cost of its
// channel and no frame, and the entry's one OpWake resolves them all.
// The channel is the caller's, made per call.
func (c *Counter) CheckChan(level uint64) <-chan error {
	ch := make(chan error, 1)
	if level <= c.known.Load() {
		c.immediate.Add(1)
		ch <- nil
		return ch
	}
	c.checkChan(level, ch)
	return ch
}

// checkChan parks a blocking wait for level resolved through ch,
// returning the id of the entry it joined and its start on clock() (a
// zero id on a closed client, for which it puts ErrClosed in ch). A
// poisoned client panics with its latched error.
func (c *Counter) checkChan(level uint64, ch chan error) (id, at uint64) {
	id, at, err := c.park(level, ch)
	if err == ErrClosed {
		ch <- err
	} else if err != nil {
		panic(err.Error())
	}
	return id, at
}

// park parks a blocking wait for level on c, resolved through ch, and
// returns its entry's id and its start on clock(). The wait joins the
// entry the level's blocking waits already share, if there is one, and
// parks it otherwise. A poisoned or closed client parks nothing and
// reports why. Each call is a suspend to the probe, whether it joins or
// not.
func (c *Counter) park(level uint64, ch chan error) (id, at uint64, err error) {
	cl := c.cl
	at = clock()
	cl.mu.Lock()
	if cl.fatal != nil {
		fatal := cl.fatal
		cl.mu.Unlock()
		return 0, 0, fatal
	}
	if cl.closed {
		cl.mu.Unlock()
		return 0, 0, ErrClosed
	}
	k := waitKey{c, level}
	id, joined := cl.joins[k]
	if joined {
		w := cl.waits[id]
		w.chs = append(w.chs, ch)
		w.since += at
	} else {
		id = cl.parkLocked(wait{ctr: c, level: level, since: at}, ch, nil)
		cl.joins[k] = id
	}
	cl.mu.Unlock()
	if joined {
		c.joined.Add(1)
	}
	c.emit(counter.EventSuspend, level)
	return id, at, nil
}

// cancelWait cancels the blocking wait that ch, started at at, joined
// under id, then blocks until the server resolves the race: OpCancelled
// (the wait was still parked → ctxErr) or OpWake (satisfaction won →
// nil). The last wait on the entry cancels the entry itself with an
// OpCancel, and takes it out of the join index. One with co-waiters
// leaves them the entry, parks a fresh one for itself out of the index,
// and sends its OpCheck and OpCancel at once: the server answers behind
// every frame the client sent before, as it would the shared entry's
// cancel. With the link down both go out at reconnect, so the server
// decides there too.
func (c *Counter) cancelWait(id, at uint64, ch chan error, ctxErr error) error {
	cl := c.cl
	cl.mu.Lock()
	if w := cl.waits[id]; w != nil {
		if len(w.chs) > 1 {
			last := len(w.chs) - 1
			i := slices.Index(w.chs, ch)
			w.chs[i], w.chs[last] = w.chs[last], nil
			w.chs = w.chs[:last]
			w.since -= at
			id = cl.parkLocked(wait{ctr: c, level: w.level, since: at}, ch, nil)
			w = cl.waits[id]
		} else {
			cl.unjoinLocked(id, w)
		}
		w.cancelled = true
		cl.enqueueLocked(&wire.Frame{Op: wire.OpCancel, ID: id})
	}
	cl.mu.Unlock()
	if err := <-ch; err != errCancelled {
		return err
	}
	return ctxErr
}

// Contribution reports this client's ledger for the counter: the total
// TryIncrement took since the last Reset, acknowledged or not. A
// reconnect's re-send leaves it unchanged and ErrClosed refuses an
// amount before it enters, so a closed client's ledger is final.
func (c *Counter) Contribution() uint64 {
	c.cl.mu.Lock()
	defer c.cl.mu.Unlock()
	return c.ledger
}

// Name returns the counter's hosted name — its identity on the server
// and across clients, and the name predicate descriptors (wait.Spec)
// carry over the wire.
func (c *Counter) Name() string { return c.name }

// SpecHost nominates this counter's Client as the evaluator for whole
// predicates over it: counter/wait routes a predicate server-side when
// every watched counter nominates the same host. See Client.ArmSpec.
func (c *Counter) SpecHost() cwait.SpecHost { return c.cl }

// Watermark returns the client's satisfied watermark: the highest level
// this client has proof the hosted value reached. It is a monotone
// lower bound on the hosted value — it lags by however much other
// clients have incremented since this client last heard a wake — which
// is exactly the view the predicate layer (counter/wait) needs, and it
// never touches the network.
func (c *Counter) Watermark() uint64 { return c.known.Load() }

// ArmHook arms the caller-owned hook h to fire when the hosted value
// reaches level. An armed hook is one wait-table entry holding h, the
// price of a blocked CheckContext that parks its level, and no
// goroutine: the reader goroutine runs h after raising the watermark,
// so h's Fire must not block. It counts as a suspended waiter for
// Reset's refusal, and h.Cancel deregisters the server-side wait. On
// the wire it is an OpSentinel, which the hosted counter's Stats count
// neither way, as in-process; a server that does not advertise
// FeatureSentinel (a v2 session) gets an OpCheck, which counts. A lost
// link or Close fires it once, an early kick the core.Sentineler
// contract permits; a hook armed on a closed or poisoned client never
// fires. ArmHook reports false only when the client's watermark already
// covers level, and allocates nothing once the client has a spare
// entry.
func (c *Counter) ArmHook(level uint64, h *core.Hook) bool {
	if level <= c.known.Load() {
		return false
	}
	cl := c.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.fatal != nil || cl.closed {
		h.ArmedBy(core.Stranded)
		return true
	}
	cl.hooks[h] = cl.parkLocked(wait{ctr: c, level: level, since: clock(), hook: h}, nil, nil)
	h.ArmedBy((*hookSite)(cl))
	return true
}

// Reset sets the hosted value back to zero for reuse between phases,
// and zeroes this client's ledger (see Contribution). As in-process, it
// must not run concurrently with other operations on the counter —
// from any client — and panics if waiters are suspended on it (the
// server refuses the reset and the panic relays its reason).
//
// Reset restarts this client's watermark, but no other client's: the
// server tells no other session of a Reset. A client that saw the value
// reach L before another client reset it keeps answering Checks at or
// below L, Watermark and ArmHook included, from its own watermark,
// without the wire, although the value is now below L. For example,
// client A runs Increment(5) and Check(5), client B runs Reset, and
// A's WaitTimeout(3, d) then returns true at once with the value at 0.
// So a phase that reuses a name through Reset must also reset, or
// re-dial, every client that checked it before.
func (c *Counter) Reset() {
	c.cl.checkFatal()
	f := wire.Frame{Op: wire.OpReset, Name: c.name}
	if err := c.cl.roundTrip(&f, 0); err != nil {
		panic("remote: reset: " + err.Error())
	}
	c.rtts.Add(1)
	if f.Op == wire.OpError {
		panic("remote: reset: " + f.Msg)
	}
	c.cl.mu.Lock()
	c.ledger = 0
	c.cl.mu.Unlock()
	// The hosted value is zero again; this client's satisfied watermark
	// must restart with it or stale immediate Checks would lie.
	c.known.Store(0)
}

// statsTimeout bounds the Stats round trip so expvar scrapes degrade to
// a cached snapshot instead of hanging when the server is unreachable.
const statsTimeout = 2 * time.Second

// Stats reports the hosted counter's engine measurements, which every
// client session contributes to: counterd counts each session's wire
// Checks as its engine counts in-process ones, a parked one in
// Suspends and one answered at once in ImmediateChecks; a Check
// replayed after a reconnect counts again, as does the fresh Check a
// joined wait cancelled beside co-waiters sends, and an armed hook
// counts neither way (see ArmHook). This client adds what only it sees:
// the blocking waits that joined a level it had already parked, which sent
// no Check, in Suspends; the checks its watermark answered without the
// wire, in ImmediateChecks; and its wire measurements, in the Remote*
// fields, where RemoteWaitNanos sums each blocking call's own time on
// the wire, joined or not. If the server cannot answer within two
// seconds the last snapshot it did give is reused (zeroes before the
// first), so an expvar scrape never wedges on a dead link.
func (c *Counter) Stats() counter.Stats {
	var s counter.Stats
	f := wire.Frame{Op: wire.OpStats, Name: c.name}
	if err := c.cl.roundTrip(&f, statsTimeout); err == nil && f.Op == wire.OpStatsReply {
		s = f.Stats
		c.rtts.Add(1)
		c.lastStats.Store(&f.Stats)
	} else if last := c.lastStats.Load(); last != nil {
		s = *last
	}
	s.ImmediateChecks += c.immediate.Load()
	s.Suspends += c.joined.Load()
	s.RemoteRoundTrips, s.RemoteWaitNanos = c.rtts.Load(), c.waitNanos.Load()
	return s
}

// SetProbe installs fn to observe this client's operations on the
// counter: EventIncrement per local Increment call, EventSuspend per
// blocking wait that parks or joins a parked level, EventWake per wake
// received, so once per level however many waits it releases, as
// in-process. A hook's arming is no suspend, as in-process, so it
// emits nothing; its wake emits EventWake. Events are client-local (the server
// aggregates all sessions; see Stats for that view). fn must be fast
// and must not call back into the counter; SetProbe(nil) removes the
// probe.
func (c *Counter) SetProbe(fn func(counter.Event)) {
	if fn == nil {
		c.probe.Store(nil)
		return
	}
	c.probe.Store(&fn)
}
