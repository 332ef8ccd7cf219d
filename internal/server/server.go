// Package server implements counterd: a TCP server hosting named
// monotonic counters that any number of processes synchronize on over
// the internal/wire protocol. Counters are backed by the sharded engine
// (internal/core.ShardedCounter), so the in-process semantics —
// monotonicity, wake-by-level, satisfied-beats-cancelled, Reset's misuse
// panic — are the wire semantics; the server adds only sessions (for
// retry-safe increment dedup) and the goroutine discipline:
//
//   - one reader goroutine per connection, which executes every frame
//     and parks every wait it cannot answer at once as a goroutine-free
//     engine hook (core.Hook, armed by ArmHook) — never a goroutine per wait or per
//     counter;
//   - one writer goroutine per connection, coalescing every queued
//     frame (wakes, acks, replies) into batched flushes.
//
// The reader decodes each frame in place into the one wire.Frame its
// connection owns, and resolves a frame's counter name once: the
// decoder's name hook finds the hosted counter in the connection's name
// table and leaves it for the handler. Beside the name table, each
// connection keeps a slot table for batched increments (OpIncrements,
// FeatureBatch): a binding entry resolves its name as any named frame
// does and records the hosted counter under its slot, and every later
// entry naming the slot indexes the table, with no name to decode or
// look up. Increment dedup is one CAS max on the session's highest
// applied sequence, so an increment on a known name or a bound slot
// takes no lock before the engine's own fast path.
//
// A parked OpCheck is one entry in its connection's wait table, which
// embeds the engine hook it parks on its level's node; the increment
// that satisfies the level fires the hook on its own goroutine, and the
// hook queues the wake frame. Entries are recycled through a
// per-connection spare list, so in steady state a parked OpCheck
// allocates only its level's node, and nothing when other waits
// already hold that level — the paper's one node per waited-on level.
// A fan-out of N remote waiters on C connections therefore
// costs the server 2C+1 goroutines (readers, writers and the accept
// loop), independent of N — experiment E22 asserts exactly this bound.
//
// Wire v3 adds server-side predicate waits (predwait.go): an OpWaitFor
// frame parks one entry per session predicate, armed on a
// predicate.Cond as its Firer, with sentinels at pigeonhole frontiers
// on the hosted counters — a quorum over N counters costs one parked
// entry and zero client round trips per non-flipping increment
// (experiment E27 asserts both bounds). The entry is the Firer of both
// kinds of wait, armed on an engine hook or a Cond and disarmed by
// Hook.Cancel or Cond.Disarm, so both share the wait table, the wake
// path, the cancel handler and the teardown sweep. An answered entry's
// Cond is kept per connection if it has watched at most four counters
// (maxSpareWidth), and renewed in place for the connection's next
// OpWaitFor once it is quiescent — no sentinel fire of its last
// predicate still on its way — so in steady state a predicate wait
// allocates its level nodes and nothing else: the Cond makes no done
// channel, since only its firer observes it, and the reader decodes the
// watch list into the storage of the last one. A wider Cond is left to
// the garbage collector once answered.
// v2 clients still connect and evaluate predicates client-side.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
	"monotonic/internal/wire"
)

// ackEvery bounds how many increments a connection applies before the
// server acknowledges even if the read buffer never drains, so a
// client pipelining a long burst can trim its resend queue.
const ackEvery = 1024

// maxResolved bounds each connection's name table (conn.resolved). A
// connection that brings a name past the bound empties the table and
// starts over, so one whose names change over its lifetime keeps its
// current names on the fast path.
const maxResolved = 1024

// maxSpareQueue bounds the drained write buffer a connection keeps for
// reuse: a drain larger than this (a wake storm) is left to the garbage
// collector instead of pinning its peak for the connection's lifetime.
const maxSpareQueue = 64 << 10

// maxSpareWaits bounds the answered wait entries a connection keeps for
// reuse (conn.spare), for the same reason: entries freed beyond it by a
// wake storm are left to the garbage collector.
const maxSpareWaits = 256

// maxSpareIncs bounds the OpIncrements entry storage a connection
// keeps for the next frame (conn.incs). An entry is at least two bytes,
// so a frame within the reader's wire.ReadBuffer holds fewer entries;
// the storage of a longer frame, which the reader copies out of its
// buffer anyway, is left to the garbage collector.
const maxSpareIncs = 2048

// maxSpareWidth bounds the answered predicates' Conds a connection
// keeps for renewal (conn.conds): only a Cond that has watched at most
// maxSpareWidth counters is kept, at most maxSpareWaits of them, so a
// storm of wide predicates does not pin its peak either.
const maxSpareWidth = 4

// Server hosts named counters. The zero value is not usable; call New.
type Server struct {
	epoch    uint64 // boot identity, sent in every Welcome; see Epoch
	mu       sync.Mutex
	counters map[string]*hosted
	sessions map[uint64]*session
	conns    map[*conn]struct{}
	lis      net.Listener
	closed   bool
	wg       sync.WaitGroup
}

// hosted is one named counter. Hosted counters are never deleted, so a
// connection may keep resolving a name to the same *hosted for as long
// as it lives (see conn.resolved).
type hosted struct {
	name string
	c    *core.ShardedCounter
}

// session carries the per-client state that survives reconnects: the
// highest applied increment sequence, which is what makes re-sending an
// unacknowledged tail safe (duplicates are dropped, monotonicity does
// the rest). Every connection of the session raises it through claim.
type session struct {
	lastSeq atomic.Uint64
}

// claim raises lastSeq to seq, reporting whether seq was new to the
// session: a CAS max, so of any connections that carry the same seq at
// once, exactly one claims it. A client sends its seqs in ascending
// order on each connection, so a seq that finds lastSeq at or past it
// was already claimed.
func (s *session) claim(seq uint64) bool {
	for {
		last := s.lastSeq.Load()
		if seq <= last {
			return false
		}
		if s.lastSeq.CompareAndSwap(last, seq) {
			return true
		}
	}
}

// New returns a server with no counters and no sessions. Each server
// instance draws a fresh nonzero boot epoch: hosted state (counter
// values, session dedup tables) lives and dies with the instance, so
// the epoch is the wire-visible name for "the state you resumed into".
func New() *Server {
	epoch := rand.Uint64()
	for epoch == 0 { // zero is the client's "never connected" sentinel
		epoch = rand.Uint64()
	}
	return &Server{
		epoch:    epoch,
		counters: make(map[string]*hosted),
		sessions: make(map[uint64]*session),
		conns:    make(map[*conn]struct{}),
	}
}

// Epoch returns the instance's boot epoch — the session-resume identity
// sent in every Welcome. A client that reconnects and receives a
// different epoch knows its acknowledged state is gone (the node
// restarted), not merely that the link flapped.
func (s *Server) Epoch() uint64 { return s.epoch }

// Serve accepts connections on lis until Close (or a fatal listener
// error), blocking. The listener is adopted: Close closes it.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(2)
		s.mu.Unlock()
		go c.readLoop()
		go c.writeLoop()
	}
}

// Close stops accepting, tears down every connection, and waits for all
// connection goroutines to retire. Hosted counter state (and sessions)
// is discarded with the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	var conns []*conn
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.teardown()
	}
	s.wg.Wait()
	return nil
}

// counter returns the hosted counter with the given name, creating it on
// first reference.
func (s *Server) counter(name string) *hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.counters[name]
	if !ok {
		h = &hosted{name: name, c: core.NewSharded()}
		s.counters[name] = h
	}
	return h
}

// session resolves a Hello: an id this instance issued resumes its
// session; any other id — 0, an id from before a restart, a guess —
// opens a fresh session under a fresh id, drawn at random like the boot
// epoch (nonzero, and not already issued). A client that resumes across
// a restart therefore gets a dedup record of its own instead of the one
// a fresh client was issued under the same id (the old instance's ids
// are random too, so only a 64-bit collision could still pair them),
// and its fresh session's lastSeq of 0 makes it re-send its whole
// pending tail, which restart recovery needs anyway.
func (s *Server) session(id uint64) (uint64, *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		return id, sess
	}
	id = rand.Uint64()
	for id == 0 || s.sessions[id] != nil {
		id = rand.Uint64()
	}
	sess := &session{}
	s.sessions[id] = sess
	return id, sess
}

// tryReset zeroes the hosted counter, or explains why not: remote waits
// parked on it, each an armed engine sentinel, make the engine's Reset
// panic exactly as suspended goroutines do in-process. An OpCheck
// leaves the engine before its OpWake or OpCancelled is queued, so a
// Reset the client sends after the last such reply succeeds. The error
// states its reason before the quoted name, because wire.Append clips
// an OpError message to wire.MaxName bytes and a name may use all of
// them.
func (h *hosted) tryReset() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cannot Reset: waits suspended on counter %q", h.name)
		}
	}()
	h.c.Reset()
	return nil
}

// conn is one client connection.
type conn struct {
	srv  *Server
	nc   net.Conn
	sess *session

	// Write side: frames queue under wmu and the writer goroutine
	// drains whatever has accumulated into one buffered write+flush, so
	// a wake storm or an ack burst becomes a handful of TCP segments.
	wmu     sync.Mutex
	wcond   *sync.Cond
	wq      []byte
	wclosed bool

	// version is the protocol dialect this connection negotiated at
	// Hello — the client's version, anywhere in [wire.MinVersion,
	// wire.Version]. Written once by the reader goroutine and only read
	// on frame-handling paths, so it needs no lock.
	version uint64

	// resolved maps the counter names this connection's frames carry to
	// their hosted counters (never deleted, so an entry never goes
	// stale). The decoder interns names through it, so a frame on a
	// known name takes neither Server.mu nor an allocation, and named
	// keeps the counter the last interned name resolved to, so handling
	// the frame does not look its name up again. Touched only by the
	// reader goroutine; at most maxResolved names. intern is
	// c.internName bound once, so reading a frame builds no closure.
	resolved map[string]*hosted
	named    *hosted
	intern   func([]byte) string
	// slots is the slot table: the hosted counter each OpIncrements
	// binding recorded, by slot, made at the connection's first binding.
	// Reader goroutine only.
	slots []*hosted
	// frame is the reader's decode target: every frame is decoded into
	// it in place and handled from it, never copied. watch and incs keep
	// the storage of the last OpWaitFor's watch list and of the last
	// OpIncrements's entries, which serve hands the frame before each
	// read, so the next one decodes into it.
	frame wire.Frame
	watch []wire.Watch
	incs  []wire.Inc
	// levels and watched are handleWaitFor's scratch for a predicate's
	// levels and counters, which a Cond copies; reader goroutine only.
	levels  []uint64
	watched []core.Sentineler

	// waits indexes this connection's parked waits, OpCheck and
	// OpWaitFor alike, by client-chosen id; nil once teardown has swept
	// it. spare holds answered entries for reuse, and conds the Conds of
	// answered OpWaitFor entries for handleWaitFor to renew, at most
	// maxSpareWaits of each (conds only those within maxSpareWidth). All
	// are guarded by waitMu, a leaf lock: wakes take it on the
	// satisfying goroutine, inside the engine's or a Cond's hook, so
	// never call into a counter, a Cond (but for its lock-free Cap) or a
	// hook's cancel while holding it. The entry fields the lock guards
	// are listed on wait.
	waitMu sync.Mutex
	waits  map[uint64]*wait
	spare  []*wait
	conds  []*predicate.Cond

	ackedSeq  uint64 // highest seq this conn has acked
	unacked   int    // increments applied since the last ack
	closeOnce sync.Once
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc}
	c.wcond = sync.NewCond(&c.wmu)
	c.resolved = make(map[string]*hosted)
	c.intern = c.internName
	c.waits = make(map[uint64]*wait)
	return c
}

// send queues one frame for the writer goroutine.
func (c *conn) send(f *wire.Frame) {
	c.wmu.Lock()
	if !c.wclosed {
		c.wq = wire.Append(c.wq, f)
		c.wcond.Signal()
	}
	c.wmu.Unlock()
}

// wait is one parked wait in conn.waits: an OpCheck sentinel on one
// hosted counter, or an OpWaitFor predicate over several (predwait.go).
// The entry is the Firer of both: an OpCheck arms the engine hook the
// entry embeds, bound to the entry, and an OpWaitFor arms the entry
// itself on its Cond. Entries are recycled through conn.spare, so
// parking one allocates nothing once the connection has answered as
// many as it parks.
//
// Ownership. The reader goroutine takes an entry at publish and owns it
// until settle; whoever removes a settled entry from the table then
// owns it and recycles it. So a wake recycles only a settled entry —
// one that fires while its arming is still under way is recycled by
// settle, which also recycles an entry answered at registration or
// swept by teardown while arming. Once waitMu drops, a racing wake may
// recycle the entry, so cancelWait copies what it needs under the lock,
// and teardown, which recycles nothing, disarms only settled entries.
type wait struct {
	core.Hook // the OpCheck's sentinel on its hosted counter
	c         *conn
	// id, level and cond are set by publish and cleared by recycling;
	// settled is set by settle. All four are guarded by waitMu.
	id      uint64
	level   uint64          // echoed in the OpWake; 0 for OpWaitFor
	cond    *predicate.Cond // the OpWaitFor predicate; nil for OpCheck
	settled bool            // arming finished: the entry is in the table for good
}

// Fire answers the wait as satisfied: the engine runs it when the
// OpCheck's level is reached, and an OpWaitFor's Cond when its
// predicate holds.
func (w *wait) Fire() { w.c.wake(w) }

// disarm cancels w's arming on cond (nil for an OpCheck, whose arming
// is its hook), reporting whether it prevented the wake: true if Fire
// had not run and now never will, false if it has run or is about to.
func (w *wait) disarm(cond *predicate.Cond) bool {
	if cond != nil {
		return cond.Disarm(w)
	}
	return w.Hook.Cancel()
}

// publish enters an entry for id in the wait table, before arming it,
// so a racing teardown sweeps it too, and hands it to the reader to arm
// and settle. An id already parked is a protocol error, and so is any
// wait after teardown.
func (c *conn) publish(id, level uint64, cond *predicate.Cond) (*wait, error) {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	if c.waits == nil {
		return nil, errors.New("server: connection closed")
	}
	if _, dup := c.waits[id]; dup {
		return nil, fmt.Errorf("server: duplicate wait id %d", id)
	}
	var w *wait
	if n := len(c.spare); n > 0 {
		w = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		w = &wait{c: c}
		w.Bind(w)
	}
	w.id, w.level, w.cond = id, level, cond
	c.waits[id] = w
	return w, nil
}

// recycleLocked returns w to the spare list, dropping what it
// references, and an OpWaitFor's Cond within maxSpareWidth to the
// renewal list, where Renew waits for its satisfaction to finish and
// refuses it while a late sentinel fire is still on its way. Called
// with waitMu held by w's owner.
func (c *conn) recycleLocked(w *wait) {
	if cond := w.cond; cond != nil && cond.Cap() <= maxSpareWidth && len(c.conds) < maxSpareWaits {
		c.conds = append(c.conds, cond)
	}
	w.cond, w.settled = nil, false
	if len(c.spare) < maxSpareWaits {
		c.spare = append(c.spare, w)
	}
}

// settle finishes arming w. Not armed means it was satisfied at
// registration: answer it now. Armed, it marks the entry settled —
// unless the entry is already gone, because it fired (its wake answered
// it) or teardown swept it; disarming tells the two apart and disarms
// the swept one. Every entry settle does not leave parked, it recycles.
func (c *conn) settle(w *wait, armed bool) {
	c.waitMu.Lock()
	id, level, cond := w.id, w.level, w.cond
	parked := c.waits[id] == w
	if armed && parked {
		w.settled = true
		c.waitMu.Unlock()
		return
	}
	if parked {
		delete(c.waits, id)
	}
	if !armed {
		c.recycleLocked(w) // nothing else can reach an entry that never armed
		c.waitMu.Unlock()
		c.send(&wire.Frame{Op: wire.OpWake, ID: id, Level: level})
		return
	}
	c.waitMu.Unlock()
	w.disarm(cond)
	c.waitMu.Lock()
	c.recycleLocked(w)
	c.waitMu.Unlock()
}

// wake answers w as satisfied and forgets it. It runs as w's Fire, on
// the satisfying goroutine, inside the engine's wake path or a Cond's
// settling: it takes only leaf locks and never blocks. Until its one
// answer, a parked wait is the table's entry for its id (publish
// refuses a duplicate), so wake deletes by id unless teardown has swept
// the table. It touches w only under waitMu, since settle may recycle
// an entry that fires while arming as soon as the lock drops.
func (c *conn) wake(w *wait) {
	c.waitMu.Lock()
	id, level := w.id, w.level
	if c.waits != nil {
		delete(c.waits, id)
		if w.settled {
			c.recycleLocked(w)
		}
	}
	c.waitMu.Unlock()
	c.send(&wire.Frame{Op: wire.OpWake, ID: id, Level: level})
}

// cancelWait executes OpCancel and OpWaitForCancel. Satisfied beats
// cancelled in frame order: this connection's increments are applied
// before its cancel, so a wait they satisfied is answered by its wake —
// already queued, or on its way from the satisfying goroutine — and
// never by OpCancelled. A predicate is polled first: its sentinels sit
// at frontier levels, so an increment can satisfy it without firing
// one, and Poll settles the Cond, which queues the wake. An OpCheck's
// hook cancel already loses once an increment claims its level. Every
// entry the reader can name here is settled, but a racing wake may
// recycle it once waitMu drops, so the cond is copied under the lock;
// the entry itself is only re-armed by this goroutine, and both its
// hook's Cancel and its Cond's Disarm report false once it has fired.
func (c *conn) cancelWait(id uint64) {
	c.waitMu.Lock()
	w := c.waits[id]
	var cond *predicate.Cond
	if w != nil {
		cond = w.cond
	}
	c.waitMu.Unlock()
	if w == nil || (cond != nil && cond.Poll()) || !w.disarm(cond) {
		return // resolved or resolving: the wake frame answers the race
	}
	c.waitMu.Lock()
	if c.waits != nil { // a disarmed wait gets no other answer
		delete(c.waits, id)
		c.recycleLocked(w)
	}
	c.waitMu.Unlock()
	c.send(&wire.Frame{Op: wire.OpCancelled, ID: id})
}

// writeLoop drains the frame queue into the socket, batching everything
// queued since the last flush into one write. The queue and a spare
// buffer trade places on every drain, so a steady stream of frames
// reuses the same two buffers instead of allocating per flush.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	var spare []byte
	for {
		buf, closed := c.drain(spare)
		if len(buf) > 0 {
			if _, err := c.nc.Write(buf); err != nil {
				c.teardown()
				return
			}
		}
		if closed {
			return
		}
		spare = buf
		if cap(spare) > maxSpareQueue {
			spare = nil
		}
	}
}

// drain waits until frames are queued or the connection closes, then
// takes the queue, leaving spare's storage in its place.
func (c *conn) drain(spare []byte) (buf []byte, closed bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for len(c.wq) == 0 && !c.wclosed {
		c.wcond.Wait()
	}
	buf = c.wq
	c.wq = spare[:0]
	return buf, c.wclosed
}

// readLoop parses and executes frames until the connection dies or
// misbehaves; protocol errors close the connection (the client's
// reconnect handshake restores its state).
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer c.teardown()
	br := bufio.NewReaderSize(c.nc, wire.ReadBuffer)
	for c.serve(br) == nil {
	}
}

// serve reads and executes one frame. Applied increments are acked when
// the pipeline drains (or every ackEvery of them), so one flush carries
// one ack for a whole burst instead of an ack per increment.
func (c *conn) serve(br *bufio.Reader) error {
	c.frame.Watch, c.frame.Incs = c.watch, c.incs
	if err := wire.ReadInterned(br, c.intern, &c.frame); err != nil {
		return err
	}
	if c.frame.Watch != nil {
		c.watch = c.frame.Watch[:0] // handleWaitFor keeps nothing of the list
	}
	if incs := c.frame.Incs; incs != nil && cap(incs) <= maxSpareIncs {
		c.incs = incs[:0] // nor the handler of the entries
	}
	if err := c.handle(&c.frame); err != nil {
		return err
	}
	if c.unacked > 0 && (br.Buffered() == 0 || c.unacked >= ackEvery) {
		if seq := c.sess.lastSeq.Load(); seq > c.ackedSeq {
			c.ackedSeq = seq
			c.send(&wire.Frame{Op: wire.OpIncAck, Seq: seq})
		}
		c.unacked = 0
	}
	return nil
}

// handle executes one frame. A non-nil error means the connection is
// unrecoverable and must close.
func (c *conn) handle(f *wire.Frame) error {
	if c.sess == nil && f.Op != wire.OpHello {
		return fmt.Errorf("server: %s before hello", f.Op)
	}
	switch f.Op {
	case wire.OpHello:
		// Negotiation, not rejection: any dialect in [MinVersion,
		// Version] is served. The Welcome advertises feature bits only
		// to v3+ clients — a v2 Welcome stays byte-identical to what a
		// v2 server sends, so old decoders never see trailing bytes. A
		// second hello would switch both under the parked waits.
		if c.sess != nil {
			return errors.New("server: second hello on one connection")
		}
		if f.Seq < wire.MinVersion || f.Seq > wire.Version {
			return fmt.Errorf("server: protocol version %d, want %d..%d",
				f.Seq, wire.MinVersion, wire.Version)
		}
		c.version = f.Seq
		id, sess := c.srv.session(f.Session)
		c.sess = sess
		last := sess.lastSeq.Load()
		c.ackedSeq = last
		var feat uint64
		if c.version >= 3 {
			feat = wire.FeatureWaitFor | wire.FeatureSentinel | wire.FeatureBatch
		}
		c.send(&wire.Frame{Op: wire.OpWelcome, Session: id, Seq: last, Epoch: c.srv.epoch, Features: feat})

	case wire.OpIncrement:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		c.increment(h, f.Seq, f.Amount)

	case wire.OpIncrements:
		if c.version < 3 {
			return errors.New("server: increments frame from a v2 session")
		}
		for i, e := range f.Incs {
			h, err := c.slot(e)
			if err != nil {
				return err
			}
			c.increment(h, f.Seq+uint64(i), e.Amount)
		}

	case wire.OpCheck, wire.OpSentinel:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		w, err := c.publish(f.ID, f.Level, nil)
		if err != nil {
			return err
		}
		// An already satisfied level (every pipelined Increment-then-Check
		// lands here) is answered at once and parks nothing: the arming's
		// first step is a lock-free look at the value. CheckHook counts a
		// Check as the engine counts an in-process one; a sentinel's
		// arming counts neither way, as in-process.
		if f.Op == wire.OpCheck {
			c.settle(w, h.c.CheckHook(f.Level, &w.Hook))
		} else {
			c.settle(w, h.c.ArmHook(f.Level, &w.Hook))
		}

	case wire.OpCancel, wire.OpWaitForCancel:
		c.cancelWait(f.ID)

	case wire.OpWaitFor:
		return c.handleWaitFor(f)

	case wire.OpReset:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		if err := h.tryReset(); err != nil {
			c.send(&wire.Frame{Op: wire.OpError, ID: f.ID, Msg: err.Error()})
		} else {
			c.send(&wire.Frame{Op: wire.OpResetOK, ID: f.ID})
		}

	case wire.OpStats:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		c.send(&wire.Frame{Op: wire.OpStatsReply, ID: f.ID, Stats: h.c.Stats()})

	default:
		return fmt.Errorf("server: unexpected %s frame from client", f.Op)
	}
	return nil
}

// internName is the decoder's name hook: a known name decodes to its
// hosted counter's string, with no allocation, and leaves that counter
// in c.named for hosted.
func (c *conn) internName(b []byte) string {
	h := c.resolved[string(b)]
	c.named = h
	if h != nil {
		return h.name
	}
	return string(b)
}

// hosted validates the counter name and resolves it: to the counter
// internName last resolved when the name is that counter's, else from
// the connection's own table when it can. A hosted counter is the only
// one under its name and is never deleted, so a match by name is right
// however old c.named is.
func (c *conn) hosted(name string) (*hosted, error) {
	if h := c.named; h != nil && h.name == name {
		return h, nil
	}
	if h := c.resolved[name]; h != nil {
		return h, nil
	}
	if name == "" || len(name) > wire.MaxName {
		return nil, fmt.Errorf("server: bad counter name %q", name)
	}
	h := c.srv.counter(name)
	if len(c.resolved) >= maxResolved {
		clear(c.resolved)
	}
	c.resolved[h.name] = h
	return h, nil
}

// slot resolves an OpIncrements entry's counter. A binding resolves its
// name through hosted, validated and hosted as any named frame's, and
// records it under the entry's slot, whether or not the entry itself is
// a duplicate the session already applied; a reference takes the
// counter its slot holds, and a slot the connection never bound is a
// protocol error. The decoder has refused slots of wire.MaxSlots and
// up.
func (c *conn) slot(e wire.Inc) (*hosted, error) {
	if e.Name == "" {
		if c.slots == nil || c.slots[e.Slot] == nil {
			return nil, fmt.Errorf("server: increment on unbound slot %d", e.Slot)
		}
		return c.slots[e.Slot], nil
	}
	h, err := c.hosted(e.Name)
	if err != nil {
		return nil, err
	}
	if c.slots == nil {
		c.slots = make([]*hosted, wire.MaxSlots)
	}
	c.slots[e.Slot] = h
	return h, nil
}

// increment executes one increment, of an OpIncrement or an
// OpIncrements entry: it applies amount to h if seq is new to the
// session, and drops a retried one (monotonic dedup). Overflow is a
// caller bug, not a connection fault: it is reported on the increment's
// seq, and the connection keeps serving.
func (c *conn) increment(h *hosted, seq, amount uint64) {
	if !c.sess.claim(seq) {
		return
	}
	c.unacked++
	if err := apply(h, amount); err != nil {
		c.send(&wire.Frame{Op: wire.OpError, ID: seq, Msg: err.Error()})
	}
}

// apply increments h, converting the overflow panic (a wrap would
// violate monotonicity) into an error for the wire; the reason comes
// before the name, as in tryReset.
func apply(h *hosted, amount uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v (counter %q)", p, h.name)
		}
	}()
	h.c.Increment(amount)
	return nil
}

// teardown closes the connection once: the socket (unblocking the
// reader), the write queue (retiring the writer), and every wait this
// connection parked, so no engine node or Cond keeps a hook for a dead
// peer. It disarms only settled entries and recycles none: a wait still
// mid-arming is the reader's, and settle finds it gone from the table
// and disarms it.
func (c *conn) teardown() {
	c.closeOnce.Do(func() {
		c.nc.Close()
		c.wmu.Lock()
		c.wclosed = true
		c.wcond.Signal()
		c.wmu.Unlock()
		c.waitMu.Lock()
		waits := c.waits
		c.waits = nil
		for id, w := range waits {
			if !w.settled {
				delete(waits, id)
			}
		}
		c.waitMu.Unlock()
		for _, w := range waits {
			w.disarm(w.cond)
		}
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	})
}
