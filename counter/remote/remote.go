// Package remote provides monotonic counters that live in a counterd
// server (cmd/counterd, internal/server), so goroutines in different
// processes — or on different machines — synchronize on the same levels.
// A remote Counter implements exactly the counter.Interface contract;
// code written against it cannot tell local from remote, and
// counter.Publish exports a remote counter's stats unchanged.
//
// The paper's monotonicity argument is what makes this safe to put on a
// wire: a counter's value only grows, so a Check can be re-sent after a
// reconnect without risk (it cannot observe a smaller value), and the
// only retry hazard is applying an Increment twice. Increments therefore
// carry per-session sequence numbers and the server deduplicates, so the
// client's resend-after-reconnect discipline preserves exactly-once
// application. See docs/PATTERNS.md, "Counters across processes".
//
// One Client multiplexes any number of named counters and outstanding
// waits over a single TCP connection with two goroutines total (a reader
// and a write flusher) — never a goroutine per blocked wait, mirroring
// the in-process engine's discipline. Increments pipeline: they are
// fire-and-forget, batched into the next flush, and a following Check
// observes them in order because the server applies frames in arrival
// order. Every frame is encoded once, straight into the client's byte
// queue under its lock; the flusher swaps the queue for a spare under
// the lock and writes it outside, so no caller waits on a write it did
// not start, and the reader decodes every frame into one Frame it owns.
//
// A run of increments is one frame where the server advertises
// wire.FeatureBatch: an increment becomes an entry of the OpIncrements
// frame at the end of the queue while that frame is the last one queued,
// its seq follows the frame's last entry and the frame stays within
// counterd's read buffer, wire.ReadBuffer; any other frame, the
// flusher's take and a reconnect close it. An entry names its counter
// by a slot of the link, bound on the counter's first increment there,
// and once every slot is bound the next binding takes a slot
// round-robin. So an increment on a bound counter queues about two
// bytes, and frame order stays program order: a Check queued after an
// increment closes its frame. A v2 session, or a server without the
// bit, gets one OpIncrement frame per increment. The queue is bounded
// for increments alone: while more than maxQueue (2048) increments wait
// behind a write in flight, TryIncrement waits for the flusher to take
// them, the backpressure a write syscall on a full buffer used to give.
//
// Every request awaiting the server's answer — a blocking Check, a hook
// armed by ArmHook, an ArmSpec predicate, a Reset or Stats call — is one
// entry in one wait table, answered by the reader goroutine and swept by
// Close, so an armed hook costs a table entry and no goroutine. The
// blocking waits of one counter and level share one entry, the paper's
// one suspension queue per waited-on level one tier up: the first call
// sends the OpCheck, every later one joins the entry with its channel
// and no frame, and the one OpWake, a reconnect's re-send or Close
// resolves them all. A reconnect re-sends the Checks and calls; a
// hook or ArmSpec entry lives for one link, and the reconnect kicks
// it as Close does, so its owner (counter/wait's predicate engine) arms
// again. One counter numbers both increment sequence numbers and wait
// ids, so a reply naming one can never be taken for the other.
package remote

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"monotonic/counter"
	"monotonic/internal/core"
	"monotonic/internal/wire"
)

// ErrClosed is reported by operations on a Client that has been Closed:
// CheckContext returns it (in place of blocking forever on a connection
// that will never come back); operations that cannot report an error
// panic with it.
var ErrClosed = errors.New("remote: client closed")

// Option configures Dial.
type Option func(*Client)

// WithDialer replaces the transport dialer (default: TCP with a 5s
// timeout). Tests use it to interpose failing links; production can use
// it for TLS or unix sockets.
func WithDialer(d func(addr string) (net.Conn, error)) Option {
	return func(cl *Client) { cl.dial = d }
}

// WithProtocol pins the wire protocol version the client speaks, for
// interop testing and conservative rollouts: WithProtocol(2) makes the
// client indistinguishable from a pre-v3 build (no feature bits
// requested, predicate waits evaluated client-side) even against a v3
// server. v must be within [wire.MinVersion, wire.Version]; the default
// is wire.Version.
func WithProtocol(v uint64) Option {
	if v < wire.MinVersion || v > wire.Version {
		panic(fmt.Sprintf("remote: protocol version %d outside %d..%d", v, wire.MinVersion, wire.Version))
	}
	return func(cl *Client) { cl.proto = v }
}

// WithBackoff configures the reconnect schedule: the first retry after
// a failed attempt sleeps a uniformly random duration below base, and
// the window doubles per consecutive failure up to cap (full jitter —
// see backoff). The defaults are 5ms growing to 500ms. Non-positive or
// inverted values are clamped sensibly (base defaults, cap raised to
// base).
func WithBackoff(base, cap time.Duration) Option {
	return func(cl *Client) { cl.boff = backoff{base: base, cap: cap} }
}

// WithRetryNotify installs fn to observe the reconnect loop: after
// every failed attempt it is called with the count of consecutive
// failures in this outage (1, 2, …) and the attempt's error, and after
// a successful reconnect with (0, nil). fn runs on the client's reader
// goroutine — it must not block and must not call methods that wait on
// the client (Close, round trips). The cluster layer uses it to declare
// a node dead after a failure budget.
func WithRetryNotify(fn func(failures int, err error)) Option {
	return func(cl *Client) { cl.retryNotify = fn }
}

// WithRestartNotify installs fn to observe node restarts: when a
// reconnect's Welcome carries a different boot epoch than the previous
// connection's, the server is a different instance — every increment it
// had acknowledged, and the counter values they built, are gone, and
// the ordinary resume (re-send the unacked tail) cannot restore them.
// fn receives both epochs, so a supervisor can act on the lost state;
// the cluster layer retires the member and replays each counter's
// ledger (Counter.Contribution) to another node (see counter/cluster).
// fn runs on the reader goroutine after the session is replayed; it
// may call TryIncrement but must not block on the client.
func WithRestartNotify(fn func(oldEpoch, newEpoch uint64)) Option {
	return func(cl *Client) { cl.restartNotify = fn }
}

// Client is one session with a counterd server. It is safe for
// concurrent use by any number of goroutines; all counters obtained
// from it share its connection. On connection failure the client
// reconnects with exponential backoff and resumes: it re-sends its
// unacknowledged increments (the server deduplicates by sequence
// number) and its blocked Checks and calls (idempotent by
// monotonicity), so callers just block across the outage, and it kicks
// its armed hooks and ArmSpec registrations, whose owners arm them
// again.
type Client struct {
	addr          string
	dial          func(addr string) (net.Conn, error)
	proto         uint64  // wire version spoken at Hello (WithProtocol; default wire.Version)
	boff          backoff // per-outage schedule template (copied by reconnect)
	retryNotify   func(failures int, err error)
	restartNotify func(oldEpoch, newEpoch uint64)
	closeCh       chan struct{} // closed by Close; unblocks backoff sleeps

	mu        sync.Mutex
	flushCond *sync.Cond // the flusher waits here for frames to write
	room      *sync.Cond // TryIncrement waits here while more than maxQueue increments are queued
	nc        net.Conn
	br        *bufio.Reader
	wq        []byte // frames queued for nc, not yet taken by the flusher
	queued    int    // increments in wq
	closed    bool
	fatal     error  // latched increment-overflow error; poisons the client
	epoch     uint64 // boot epoch of the server instance last welcomed by
	features  uint64 // feature bits from the last Welcome (zero on v2 sessions)

	// The open OpIncrements frame starts at wq[batch], and its next
	// entry carries seq batchSeq; batchSeq is zero while no frame is
	// open (seqs start at 1).
	batch    int
	batchSeq uint64
	// slots holds the counter each slot of the link is bound to, in
	// binding order until all wire.MaxSlots are bound; then nextSlot is
	// the slot the next binding takes.
	slots    []*Counter
	nextSlot uint64

	session uint64
	// serial is the last number drawn for an increment's seq or a wait's
	// id. One space for both: the server reports a rejected increment as
	// an OpError carrying its seq, which therefore names no wait.
	serial   uint64
	pending  []pendingInc          // increments sent but not yet acknowledged, ascending by seq
	acks     uint64                // OpIncAck frames dispatched; see Counter.ackMark
	waits    map[uint64]*wait      // requests awaiting an answer, by frame id; see wait
	joins    map[waitKey]uint64    // the id of the entry each level's blocking waits join
	hooks    map[*core.Hook]uint64 // the id of the entry each armed hook holds
	spare    []*wait               // answered entries kept for reuse, at most maxSpareWaits
	spec     wire.Frame            // ArmSpec's scratch OpWaitFor frame
	counters map[string]*Counter

	// Lifetime frame tallies (see WireStats): enqueued to and received
	// from the server, across reconnects.
	framesSent atomic.Uint64
	framesRecv atomic.Uint64

	wg sync.WaitGroup
}

type pendingInc struct {
	seq    uint64
	ctr    *Counter
	amount uint64
}

// maxQueue bounds the increments TryIncrement may leave queued behind
// the write in flight: past it, an incrementer waits until the flusher
// takes the queue. It counts increments, not bytes, so the unacknowledged
// tail a stalled link leaves pending is as long in either encoding
// (about 64 KiB of OpIncrement frames, or a few KiB of OpIncrements
// entries). Only increments wait. Every other frame is an answer to a
// wait or a request the caller then waits on, and the wait table a
// reconnect re-sends or kicks is the source of truth, so those are
// queued regardless.
const maxQueue = 2048

// maxSpareQueue bounds the written buffer the flusher keeps for reuse: a
// larger one (a reconnect replaying a long tail) is left to the garbage
// collector instead of pinning its peak for the client's lifetime.
const maxSpareQueue = 128 << 10

// maxSpareWaits bounds the answered wait-table entries a client keeps
// for reuse (Client.spare): entries freed beyond it by a burst of
// answers are left to the garbage collector instead of pinning the
// burst's peak for the client's lifetime.
const maxSpareWaits = 256

// maxSpareJoins bounds the channel storage a recycled entry keeps: the
// storage of a level that more blocking waits joined is left to the
// garbage collector instead of pinning the fan-out's peak.
const maxSpareJoins = 256

// wait is one entry in Client.waits: a wait on ctr at level for the
// blocking Checks joined on it (chs) or an armed hook (hook), an ArmSpec
// registration (fire), or a Reset or Stats call (frame and chs). A
// call's frame is re-sent as is on reconnect, and its reply is copied
// into it before its channel is answered; a Check's is rebuilt from ctr
// and level (checkFrameLocked). An entry without channels keeps no
// frame: it lives for one link (see kick). The table holds entries by
// pointer, and an answered entry is recycled through Client.spare with
// its channel storage: whoever takes one out of the table owns it until
// it hands it back (recycleLocked). (By pointer because a Go map never
// prunes its deleted slots in place: a churned table of 80-byte values
// holds about three times the memory of pointers plus their entries.)
type wait struct {
	ctr   *Counter
	level uint64
	// since sums the start times (clock) of the calls waiting on the
	// entry, modulo 2^64, so a wake adds each call's own time on the
	// wire to RemoteWaitNanos as n·now − since, whatever n is.
	since uint64
	// chs resolve the blocking waits joined on the entry, or a call: nil
	// for a wake or a reply, errCancelled for a confirmed cancel,
	// ErrClosed if the client closes. Each is buffered, so the reader
	// never blocks delivering.
	chs       []chan error
	hook      *core.Hook
	frame     *wire.Frame
	fire      func(satisfied bool)
	cancelled bool // a blocking wait's OpCancel was sent; replay re-sends it
}

// waitKey names the level of a counter that blocking waits join on.
type waitKey struct {
	ctr   *Counter
	level uint64
}

// epoch anchors clock.
var epoch = time.Now()

// clock returns monotonic nanoseconds since the package loaded: a wait
// entry's start times in eight bytes.
func clock() uint64 { return uint64(time.Since(epoch)) }

// errCancelled resolves a blocking wait whose cancel the server
// confirmed; the waiter returns its own context error in its place.
var errCancelled = errors.New("remote: wait cancelled")

// replies keeps the reply channels of the calls whose channel never
// leaves the package — Check, CheckContext (and so WaitTimeout), Reset
// and Stats — for reuse. A channel goes back only from the goroutine
// that received its one value, so it is empty and no entry holds it.
var replies = sync.Pool{New: func() any { return make(chan error, 1) }}

// Dial connects to a counterd server and performs the session
// handshake. The returned client holds one connection and two
// goroutines regardless of how many counters and waits it multiplexes.
func Dial(addr string, opts ...Option) (*Client, error) {
	cl := newClient(addr, opts)
	if err := cl.connect(); err != nil {
		return nil, err
	}
	cl.wg.Add(2)
	go cl.readLoop()
	go cl.flushLoop()
	return cl, nil
}

// newClient returns a configured client that has not connected yet.
func newClient(addr string, opts []Option) *Client {
	cl := &Client{
		addr: addr,
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
		proto:    wire.Version,
		boff:     backoff{base: defaultBackoffBase, cap: defaultBackoffCap},
		closeCh:  make(chan struct{}),
		waits:    make(map[uint64]*wait),
		joins:    make(map[waitKey]uint64),
		hooks:    make(map[*core.Hook]uint64),
		counters: make(map[string]*Counter),
	}
	cl.flushCond = sync.NewCond(&cl.mu)
	cl.room = sync.NewCond(&cl.mu)
	for _, o := range opts {
		o(cl)
	}
	return cl
}

// connect dials, handshakes, installs the new connection, re-sends the
// session state (unacknowledged increments, blocked Checks and calls)
// and kicks the hook and ArmSpec entries. Called from Dial and from
// the reader's reconnect loop.
func (cl *Client) connect() error {
	cl.mu.Lock()
	sess := cl.session
	cl.mu.Unlock()

	nc, err := cl.dial(cl.addr)
	if err != nil {
		return err
	}
	hello := wire.Append(nil, &wire.Frame{Op: wire.OpHello, Session: sess, Seq: cl.proto})
	if _, err := nc.Write(hello); err != nil {
		nc.Close()
		return err
	}
	br := bufio.NewReader(nc)
	welcome, err := wire.Read(br)
	if err != nil {
		nc.Close()
		return err
	}
	if welcome.Op != wire.OpWelcome {
		nc.Close()
		return fmt.Errorf("remote: handshake reply %s, want welcome", welcome.Op)
	}

	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		nc.Close()
		return ErrClosed
	}
	cl.nc, cl.br = nc, br
	cl.session = welcome.Session
	// A changed boot epoch means this is a different server instance:
	// the old one's acknowledged state is gone. The resume below still
	// does the right mechanical thing — a fresh instance has lastSeq 0,
	// so the whole pending tail survives the trim and is re-sent — but
	// acknowledged increments cannot be recovered here; that is the
	// restart notification's job (the cluster layer replays its ledger).
	oldEpoch := cl.epoch
	cl.epoch = welcome.Epoch
	cl.features = welcome.Features
	restarted := oldEpoch != 0 && welcome.Epoch != oldEpoch

	// Everything the server already applied can be forgotten; the rest
	// is re-sent in order and deduplicated server-side by sequence, on
	// slots bound afresh: the new connection has bound none.
	trimmed := cl.pending[:0]
	for _, p := range cl.pending {
		if p.seq > welcome.Seq {
			trimmed = append(trimmed, p)
		}
	}
	cl.pending = trimmed
	cl.slots, cl.nextSlot = cl.slots[:0], 0
	for _, p := range cl.pending {
		cl.incrementLocked(p)
	}
	// Every entry a goroutine blocks on is re-sent, since its request or
	// its answer may have died with the old link: one OpCheck for all the
	// waits joined on a level. Re-asking is harmless: a wait's value is
	// monotonic, and Reset and Stats are idempotent. A cancelled blocking
	// wait re-sends its OpCancel behind its OpCheck: the server decides
	// the race again, and a level it satisfied still beats the cancel. A
	// hook or ArmSpec entry is kicked instead: its owner asks again
	// over this link, where an ArmSpec re-ask is refused if this server
	// lacks the feature.
	var kicked []*wait
	for id, w := range cl.waits {
		switch {
		case len(w.chs) == 0:
			delete(cl.waits, id)
			delete(cl.hooks, w.hook)
			kicked = append(kicked, w)
		case w.frame != nil:
			cl.enqueueLocked(w.frame)
		default:
			cl.enqueueLocked(cl.checkFrameLocked(id, w))
			if w.cancelled {
				cl.enqueueLocked(&wire.Frame{Op: wire.OpCancel, ID: id})
			}
		}
	}
	cl.mu.Unlock()
	kick(kicked)
	if restarted && cl.restartNotify != nil {
		// Out of the lock: the callback may call back into the client.
		cl.restartNotify(oldEpoch, welcome.Epoch)
	}
	return nil
}

// Epoch returns the boot epoch of the server instance the client last
// completed a handshake with (zero before the first). It changes only
// when a reconnect lands on a restarted server; see WithRestartNotify.
func (cl *Client) Epoch() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.epoch
}

// Close tears the session down: the connection is closed, both client
// goroutines retire, every outstanding call and blocked wait (each wait
// joined on a level) resolves with ErrClosed, and every armed hook
// and ArmSpec registration is kicked once, as on a lost link (see
// kick). Increments not yet acknowledged by the server may or may not
// have been applied — Close abandons the session's exactly-once
// tracking.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	close(cl.closeCh) // unblocks a reconnect backoff sleep immediately
	if cl.nc != nil {
		cl.nc.Close()
	}
	var kicked []*wait
	for id, w := range cl.waits {
		delete(cl.waits, id)
		for _, ch := range w.chs {
			ch <- ErrClosed
		}
		if len(w.chs) == 0 {
			kicked = append(kicked, w)
		}
	}
	clear(cl.joins)
	clear(cl.hooks)
	cl.flushCond.Broadcast()
	cl.room.Broadcast()
	cl.mu.Unlock()
	kick(kicked)
	cl.wg.Wait()
	return nil
}

// kick fires, once and outside cl.mu, each hook and ArmSpec entry a
// reconnect or Close took out of the wait table, so its owner arms
// again: a hook as the early kick core.Sentineler allows, a
// registration's fire(false) as predicate.External names a lost one.
func kick(ws []*wait) {
	for _, w := range ws {
		if w.fire != nil {
			w.fire(false)
		} else {
			w.hook.Run()
		}
	}
}

// checkFrameLocked builds the frame that parks w, a wait on ctr: an
// OpCheck, or an uncounted OpSentinel for a hook where the current
// link's server advertised it. Callers hold cl.mu.
func (cl *Client) checkFrameLocked(id uint64, w *wait) *wire.Frame {
	op := wire.OpCheck
	if w.hook != nil && cl.features&wire.FeatureSentinel != 0 {
		op = wire.OpSentinel
	}
	return &wire.Frame{Op: op, Name: w.ctr.name, ID: id, Level: w.level}
}

// parkLocked enters e in the wait table under a fresh id, in a spare
// entry when there is one, with ch as its first channel unless ch is
// nil, and sends f under that id, or e's wait on its counter when f is
// nil. Callers hold cl.mu and have checked that the client is open.
func (cl *Client) parkLocked(e wait, ch chan error, f *wire.Frame) uint64 {
	cl.serial++
	id := cl.serial
	if f == nil {
		f = cl.checkFrameLocked(id, &e)
	}
	f.ID = id
	cl.enqueueLocked(f)
	var w *wait
	if n := len(cl.spare); n > 0 {
		w = cl.spare[n-1]
		cl.spare = cl.spare[:n-1]
	} else {
		w = new(wait)
	}
	e.chs = w.chs // a recycled entry's storage, empty
	if ch != nil {
		e.chs = append(e.chs, ch)
	}
	*w = e
	cl.waits[id] = w
	return id
}

// takeLocked removes the entry under id from the wait table, from the
// join index if blocking waits join it there and from the hook index
// if it holds a hook, and returns it; nil if there is none. The caller
// owns the entry until it hands it to recycleLocked. Callers hold
// cl.mu.
func (cl *Client) takeLocked(id uint64) *wait {
	w := cl.waits[id]
	if w == nil {
		return nil
	}
	delete(cl.waits, id)
	delete(cl.hooks, w.hook)
	cl.unjoinLocked(id, w)
	return w
}

// unjoinLocked takes w, the entry under id, out of the join index, so
// the next blocking wait at its level parks a fresh entry. Callers hold
// cl.mu.
func (cl *Client) unjoinLocked(id uint64, w *wait) {
	if k := (waitKey{w.ctr, w.level}); w.ctr != nil && cl.joins[k] == id {
		delete(cl.joins, k)
	}
}

// recycleLocked keeps w, taken out of the table and answered, for the
// next park, with its channel storage unless it holds more than
// maxSpareJoins, and keeps nothing once maxSpareWaits are kept. Callers
// hold cl.mu.
func (cl *Client) recycleLocked(w *wait) {
	if len(cl.spare) == maxSpareWaits {
		return
	}
	chs := w.chs[:0]
	if cap(chs) > maxSpareJoins {
		chs = nil
	}
	clear(w.chs)
	*w = wait{chs: chs}
	cl.spare = append(cl.spare, w)
}

// replyLocked is takeLocked for the entry the reply f answers, if f's
// op fits its kind: a wake answers any wait, a cancel only a blocking
// Check (the one wait parked behind its OpCancel), and a call's reply
// only a call. A reply that does not fit takes nothing, leaving the
// entry for its real answer. Callers hold cl.mu.
func (cl *Client) replyLocked(f *wire.Frame) *wait {
	w := cl.waits[f.ID]
	if w == nil {
		return nil
	}
	call := w.frame != nil
	fits := call
	switch f.Op {
	case wire.OpWake:
		fits = !call
	case wire.OpCancelled:
		fits = !call && len(w.chs) > 0
	}
	if !fits {
		return nil
	}
	return cl.takeLocked(f.ID)
}

// hookSite is the client as the site of the hooks its counters arm
// (core.Disarmer).
type hookSite Client

// DisarmHook is Cancel for a hook armed on one of the client's
// counters: unpark for the entry the hook holds, if any.
func (s *hookSite) DisarmHook(h *core.Hook) bool {
	cl := (*Client)(s)
	cl.mu.Lock()
	id, ok := cl.hooks[h]
	cl.mu.Unlock()
	return ok && cl.unpark(id)
}

// unpark is the cancel of an armed hook or an ArmSpec registration: it
// forgets the entry and tells the server, whose answer then finds no
// entry. It reports false if a wake, a reconnect or Close took the entry
// first, which then fires it.
func (cl *Client) unpark(id uint64) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	w := cl.takeLocked(id)
	if w == nil {
		return false
	}
	op := wire.OpCancel
	if w.fire != nil {
		op = wire.OpWaitForCancel
	}
	cl.recycleLocked(w)
	cl.enqueueLocked(&wire.Frame{Op: op, ID: id})
	return true
}

// Counter returns the named counter hosted by the server, creating it
// server-side on first use. Counters with the same name from any client
// are the same counter. The name must be 1..wire.MaxName bytes.
func (cl *Client) Counter(name string) *Counter {
	if name == "" || len(name) > wire.MaxName {
		panic(fmt.Sprintf("remote: bad counter name %q", name))
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	c, ok := cl.counters[name]
	if !ok {
		c = &Counter{cl: cl, name: name}
		cl.counters[name] = c
	}
	return c
}

// enqueueLocked encodes f onto the connection's write queue, waking the
// flusher if the queue was empty, and closes the open OpIncrements
// frame, which is no longer the last one queued. With the link down it
// is a no-op: the session state a reconnect re-sends or kicks is the
// source of truth, not the queue. Callers hold cl.mu.
func (cl *Client) enqueueLocked(f *wire.Frame) {
	if cl.nc == nil {
		return
	}
	cl.framesSent.Add(1)
	if len(cl.wq) == 0 {
		cl.flushCond.Signal()
	}
	cl.batchSeq = 0
	cl.wq = wire.Append(cl.wq, f)
}

// incrementLocked queues the pending increment p on the link: as an
// OpIncrement where the server lacks wire.FeatureBatch, and otherwise as
// an entry of the open OpIncrements frame where p's seq follows its last
// entry and the frame, length prefix included, has room for one more
// within wire.ReadBuffer, which counterd decodes in place, else as the
// first entry of a new one. With the link down it is a no-op, as
// enqueueLocked is. Callers hold cl.mu.
func (cl *Client) incrementLocked(p pendingInc) {
	if cl.nc == nil {
		return
	}
	cl.queued++
	if cl.features&wire.FeatureBatch == 0 {
		cl.enqueueLocked(&wire.Frame{Op: wire.OpIncrement, Name: p.ctr.name, Seq: p.seq, Amount: p.amount})
		return
	}
	e := cl.entryLocked(p)
	if p.seq == cl.batchSeq && len(cl.wq)-cl.batch <= wire.ReadBuffer-wire.MaxInc {
		cl.wq = wire.AppendInc(cl.wq, cl.batch, e)
	} else {
		at := len(cl.wq)
		cl.enqueueLocked(&wire.Frame{Op: wire.OpIncrements, Seq: p.seq, Incs: []wire.Inc{e}})
		cl.batch = at
	}
	cl.batchSeq = p.seq + 1
}

// entryLocked returns p's OpIncrements entry: a reference to the slot
// its counter is bound to on the link, or a binding of the next slot,
// taken round-robin from the counter holding it once every slot is
// bound. Callers hold cl.mu.
func (cl *Client) entryLocked(p pendingInc) wire.Inc {
	c := p.ctr
	if s := c.slot; s < uint64(len(cl.slots)) && cl.slots[s] == c {
		return wire.Inc{Slot: s, Amount: p.amount}
	}
	s := uint64(len(cl.slots))
	if s < wire.MaxSlots {
		cl.slots = append(cl.slots, c)
	} else {
		s = cl.nextSlot
		cl.nextSlot = (s + 1) % wire.MaxSlots
		cl.slots[s] = c
	}
	c.slot = s
	return wire.Inc{Slot: s, Name: c.name, Amount: p.amount}
}

// flushLoop writes queued frames: each pass takes everything queued
// since the last one, so a burst of increments or cancels becomes one
// write, and writes it outside cl.mu. The queue and a spare buffer
// trade places on every take, so a steady stream of frames reuses the
// same two buffers.
func (cl *Client) flushLoop() {
	defer cl.wg.Done()
	var spare []byte
	for {
		buf, nc := cl.take(spare)
		if nc == nil {
			return
		}
		if _, err := nc.Write(buf); err != nil {
			// A failed write may leave the stream mid-frame: close the
			// link, so the reader notices it and reconnects.
			nc.Close()
		}
		spare = buf
		if cap(spare) > maxSpareQueue {
			spare = nil
		}
	}
}

// take waits until frames are queued or the client closes, then takes
// the queue and the link it is queued for, leaving spare's storage in
// its place, and wakes the incrementers waiting for room. The queue only
// ever holds frames for the current link (reconnect drops it with the
// link), and the link is nil once the client is closed.
func (cl *Client) take(spare []byte) ([]byte, net.Conn) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for len(cl.wq) == 0 && !cl.closed {
		cl.flushCond.Wait()
	}
	if cl.closed {
		return nil, nil
	}
	buf := cl.wq
	cl.wq, cl.queued, cl.batchSeq = spare[:0], 0, 0
	cl.room.Broadcast()
	return buf, cl.nc
}

// readLoop dispatches server frames and drives reconnection. Every frame
// is decoded into f, which only this goroutine touches.
func (cl *Client) readLoop() {
	defer cl.wg.Done()
	var f wire.Frame
	for {
		cl.mu.Lock()
		br := cl.br
		closed := cl.closed
		cl.mu.Unlock()
		if closed {
			return
		}
		if err := wire.ReadInterned(br, nil, &f); err != nil {
			if !cl.reconnect() {
				return
			}
			continue
		}
		cl.framesRecv.Add(1)
		cl.dispatch(&f)
	}
}

// reconnect re-establishes the session, sleeping a jittered exponential
// backoff (see backoff) between attempts, and reports false once the
// client is closed. The sleep selects against the close channel, so a
// Close issued mid-backoff returns promptly instead of waiting the
// window out. The write queue goes with the link: connect re-sends or
// kicks whatever in it still matters, so an incrementer waiting for
// room proceeds at once.
func (cl *Client) reconnect() bool {
	cl.mu.Lock()
	if cl.nc != nil {
		cl.nc.Close()
		cl.nc, cl.br, cl.wq, cl.queued, cl.batchSeq = nil, nil, nil, 0, 0
		cl.room.Broadcast()
	}
	cl.mu.Unlock()
	b := cl.boff // fresh window per outage
	failures := 0
	for {
		cl.mu.Lock()
		closed := cl.closed
		cl.mu.Unlock()
		if closed {
			return false
		}
		err := cl.connect()
		if err == nil {
			if cl.retryNotify != nil {
				cl.retryNotify(0, nil)
			}
			return true
		}
		if errors.Is(err, ErrClosed) {
			return false
		}
		failures++
		if cl.retryNotify != nil {
			cl.retryNotify(failures, err)
		}
		select {
		case <-time.After(b.next()):
		case <-cl.closeCh:
			return false
		}
	}
}

// dispatch routes one server frame to the wait-table entry it resolves.
func (cl *Client) dispatch(f *wire.Frame) {
	switch f.Op {
	case wire.OpWake, wire.OpCancelled:
		cl.mu.Lock()
		w := cl.replyLocked(f)
		cl.mu.Unlock()
		switch {
		case w == nil: // forgotten by unpark, or not an answer to it
			return
		case f.Op == wire.OpCancelled: // only a blocking wait stays parked behind its OpCancel, with its one call
			w.ctr.rtts.Add(1)
			w.chs[0] <- errCancelled
		case w.fire != nil:
			// The server observed the predicate holding: authoritative.
			w.fire(true)
		default:
			c := w.ctr
			c.noteSatisfied(f.Level)
			c.rtts.Add(1)
			n := uint64(len(w.chs))
			if w.hook != nil {
				n = 1 // a hook's time parked counts as one wait's
			}
			c.waitNanos.Add(n*clock() - w.since)
			c.emit(counter.EventWake, f.Level)
			for _, ch := range w.chs {
				ch <- nil
			}
			if w.hook != nil {
				w.hook.Run() // after the watermark rose, so a re-evaluation sees level
			}
		}
		cl.mu.Lock()
		cl.recycleLocked(w)
		cl.mu.Unlock()
	case wire.OpIncAck:
		// One round trip per acked counter: ackMark tells a counter seen
		// earlier in this prefix from one not yet counted.
		cl.mu.Lock()
		cl.acks++
		trimmed := cl.pending[:0]
		for _, p := range cl.pending {
			if p.seq > f.Seq {
				trimmed = append(trimmed, p)
			} else if p.ctr.ackMark != cl.acks {
				p.ctr.ackMark = cl.acks
				p.ctr.rtts.Add(1)
			}
		}
		cl.pending = trimmed
		cl.mu.Unlock()
	case wire.OpResetOK, wire.OpStatsReply, wire.OpError:
		cl.mu.Lock()
		if w := cl.replyLocked(f); w != nil {
			*w.frame = *f // a call's reply, read by roundTrip once its channel answers
			w.chs[0] <- nil
			cl.recycleLocked(w)
		} else if f.Op == wire.OpError && cl.fatal == nil && cl.waits[f.ID] == nil {
			// No entry: the server rejected an increment (the only
			// fire-and-forget op that can fail — overflow), naming its
			// seq. That is a caller bug exactly like the in-process
			// panic, but it surfaces asynchronously, so latch it and
			// panic the next operation.
			cl.fatal = errors.New("remote: " + f.Msg)
		}
		cl.mu.Unlock()
	}
}

// roundTrip sends the request f as an entry in the wait table and blocks
// until the server answers (re-sent across reconnects), the timeout
// lapses (zero means none), or the client closes. On a nil error f
// holds the reply.
func (cl *Client) roundTrip(f *wire.Frame, timeout time.Duration) error {
	ch := replies.Get().(chan error)
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return ErrClosed
	}
	id := cl.parkLocked(wait{frame: f}, ch, f)
	cl.mu.Unlock()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case err := <-ch:
		replies.Put(ch)
		return err
	case <-timer:
		cl.mu.Lock()
		w := cl.takeLocked(id)
		if w != nil {
			cl.recycleLocked(w)
		}
		cl.mu.Unlock()
		if w == nil {
			err := <-ch // the reply (or Close) took the entry first
			replies.Put(ch)
			return err
		}
		return fmt.Errorf("remote: %s timed out after %v", f.Op, timeout)
	}
}

// checkFatal panics if a previous pipelined operation was rejected by
// the server (increment overflow) or the client is closed — the remote
// analogue of the in-process programming-error panics.
func (cl *Client) checkFatal() {
	cl.mu.Lock()
	fatal, closed := cl.fatal, cl.closed
	cl.mu.Unlock()
	if fatal != nil {
		panic(fatal.Error())
	}
	if closed {
		panic(ErrClosed.Error())
	}
}
