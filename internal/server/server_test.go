package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"monotonic/internal/wire"
)

// Protocol-level tests: a raw TCP client speaking wire frames, so the
// server's contract is pinned independently of the counter/remote
// client implementation.

type rawClient struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	return s, lis.Addr().String()
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawClient{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawClient) send(frames ...*wire.Frame) {
	c.t.Helper()
	var buf []byte
	for _, f := range frames {
		buf = wire.Append(buf, f)
	}
	if _, err := c.nc.Write(buf); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

// recv reads one frame, failing the test after a 5s stall.
func (c *rawClient) recv() wire.Frame {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.Read(c.br)
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return f
}

// expectClosed reads until the server closes the connection and
// returns the ops of the frames it read before the close. It fails the
// test if the connection is still open after 5s: a read that times out
// is no close.
func (c *rawClient) expectClosed() []wire.Op {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ops []wire.Op
	for {
		f, err := wire.Read(c.br)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.t.Fatalf("connection still open after 5s (read %v), want it closed", ops)
		}
		if err != nil {
			return ops
		}
		ops = append(ops, f.Op)
	}
}

// recvOp skips frames until one with the wanted opcode arrives (acks and
// wakes interleave freely in the write batching).
func (c *rawClient) recvOp(op wire.Op) wire.Frame {
	c.t.Helper()
	for {
		f := c.recv()
		if f.Op == op {
			return f
		}
	}
}

// hello performs the handshake, resuming the given session (0 = fresh),
// and returns the welcome frame.
func (c *rawClient) hello(session uint64) wire.Frame {
	c.t.Helper()
	c.send(&wire.Frame{Op: wire.OpHello, Session: session, Seq: wire.Version})
	f := c.recv()
	if f.Op != wire.OpWelcome {
		c.t.Fatalf("handshake reply %s, want welcome", f.Op)
	}
	return f
}

func TestHandshakeIncrementWake(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	w := c.hello(0)
	if w.Session == 0 {
		t.Fatal("welcome carries session 0")
	}

	// A check below a value the same pipeline establishes resolves: the
	// server applies a session's frames in order.
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "a", Seq: 1, Amount: 5},
		&wire.Frame{Op: wire.OpCheck, Name: "a", ID: 1, Level: 5},
		&wire.Frame{Op: wire.OpCheck, Name: "a", ID: 2, Level: 3},
	)
	got := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		f := c.recvOp(wire.OpWake)
		got[f.ID] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("wakes for ids %v, want 1 and 2", got)
	}

	// A blocked check resolves when a later increment satisfies it.
	c.send(&wire.Frame{Op: wire.OpCheck, Name: "a", ID: 3, Level: 8})
	c.send(&wire.Frame{Op: wire.OpIncrement, Name: "a", Seq: 2, Amount: 3})
	if f := c.recvOp(wire.OpWake); f.ID != 3 || f.Level != 8 {
		t.Fatalf("wake = id %d level %d, want id 3 level 8", f.ID, f.Level)
	}
}

func TestIncrementAckAndDedup(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "d", Seq: 1, Amount: 1},
		&wire.Frame{Op: wire.OpIncrement, Name: "d", Seq: 2, Amount: 1},
	)
	if f := c.recvOp(wire.OpIncAck); f.Seq != 2 {
		t.Fatalf("ack seq = %d, want 2", f.Seq)
	}
	// Retransmits (seq <= lastSeq) must be dropped: after re-sending
	// both, a check at 3 must stay pending (cancel confirms) while a
	// fresh seq 3 then satisfies it.
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "d", Seq: 1, Amount: 1},
		&wire.Frame{Op: wire.OpIncrement, Name: "d", Seq: 2, Amount: 1},
		&wire.Frame{Op: wire.OpCheck, Name: "d", ID: 1, Level: 3},
		&wire.Frame{Op: wire.OpCancel, ID: 1},
	)
	if f := c.recv(); f.Op != wire.OpCancelled || f.ID != 1 {
		t.Fatalf("got %s id %d, want cancelled id 1 (dup increments must not apply)", f.Op, f.ID)
	}
	c.send(
		&wire.Frame{Op: wire.OpCheck, Name: "d", ID: 2, Level: 3},
		&wire.Frame{Op: wire.OpIncrement, Name: "d", Seq: 3, Amount: 1},
	)
	if f := c.recvOp(wire.OpWake); f.ID != 2 {
		t.Fatalf("wake id = %d, want 2", f.ID)
	}
}

// TestHelloForUnissuedSessionOpensFresh: a Hello naming an id this
// instance never issued — a client resuming across a counterd restart,
// or a guess — must open a fresh session under a new id, never create a
// record under the id it named. Otherwise a restarted server's freshly
// issued id collides with a resumed one and two clients share one dedup
// record, and resuming id 2^64-1 wraps the issue sequence to 0.
func TestHelloForUnissuedSessionOpensFresh(t *testing.T) {
	_, addr := startServer(t)
	a := dialRaw(t, addr)
	issued := a.hello(0).Session
	a.send(&wire.Frame{Op: wire.OpIncrement, Name: "u", Seq: 7, Amount: 1})
	a.recvOp(wire.OpIncAck)

	seen := map[uint64]bool{0: true, issued: true}
	for _, id := range []uint64{issued + 1, ^uint64(0)} {
		w := dialRaw(t, addr).hello(id)
		if w.Session == id || seen[w.Session] {
			t.Fatalf("Hello(%d) welcomed under session %d; want a fresh nonzero id (issued so far: %v)", id, w.Session, seen)
		}
		if w.Seq != 0 {
			t.Fatalf("Hello(%d) welcomed with Seq %d, want 0 for a fresh session", id, w.Seq)
		}
		seen[w.Session] = true
	}
	if w := dialRaw(t, addr).hello(0); seen[w.Session] {
		t.Fatalf("fresh Hello welcomed under session %d, already issued or zero (%v)", w.Session, seen)
	}
}

func TestSessionResume(t *testing.T) {
	_, addr := startServer(t)
	c1 := dialRaw(t, addr)
	w := c1.hello(0)
	c1.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "r", Seq: 1, Amount: 10},
		&wire.Frame{Op: wire.OpIncrement, Name: "r", Seq: 2, Amount: 10},
	)
	c1.recvOp(wire.OpIncAck)
	c1.nc.Close()

	// Resume: the welcome reports the applied watermark, and re-sent
	// tail frames below it are dropped.
	c2 := dialRaw(t, addr)
	w2 := c2.hello(w.Session)
	if w2.Session != w.Session {
		t.Fatalf("resumed session = %d, want %d", w2.Session, w.Session)
	}
	if w2.Seq != 2 {
		t.Fatalf("resumed lastSeq = %d, want 2", w2.Seq)
	}
	c2.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "r", Seq: 2, Amount: 10}, // retransmit: dropped
		&wire.Frame{Op: wire.OpIncrement, Name: "r", Seq: 3, Amount: 1},
		&wire.Frame{Op: wire.OpCheck, Name: "r", ID: 1, Level: 21},
		&wire.Frame{Op: wire.OpCheck, Name: "r", ID: 2, Level: 22}, // would pass had seq 2 double-applied
		&wire.Frame{Op: wire.OpCancel, ID: 2},
	)
	sawWake1 := false
	for i := 0; i < 2; i++ {
		switch f := c2.recv(); {
		case f.Op == wire.OpWake && f.ID == 1:
			sawWake1 = true
		case f.Op == wire.OpCancelled && f.ID == 2:
		case f.Op == wire.OpIncAck:
			i-- // ack frames interleave; not one of the two answers
		default:
			t.Fatalf("unexpected %s id %d", f.Op, f.ID)
		}
	}
	if !sawWake1 {
		t.Fatal("check at 21 never woke: retransmitted increment was lost instead of deduped")
	}
}

// TestSessionDedupAcrossConnections races two connections of one
// session, the second resuming the id the first was welcomed under, as
// a client does when it redials while its old connection still has
// frames in flight. Both send the same OpIncrement seqs 1..n on one
// counter at the same time, each stream ending in an OpStats fence;
// every seq must apply exactly once, so once both fences are answered
// the value is exactly n. Dedup that read lastSeq and raised it in two
// steps would let both connections apply a seq they read as new.
func TestSessionDedupAcrossConnections(t *testing.T) {
	const n, rounds = 4000, 10
	s, addr := startServer(t)
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("dedup%d", r)
		a := dialRaw(t, addr)
		b := dialRaw(t, addr)
		b.hello(a.hello(0).Session)
		var stream []byte
		for seq := uint64(1); seq <= n; seq++ {
			stream = wire.Append(stream, &wire.Frame{Op: wire.OpIncrement, Name: name, Seq: seq, Amount: 1})
		}
		stream = wire.Append(stream, &wire.Frame{Op: wire.OpStats, Name: name, ID: n + 1})
		start := make(chan struct{})
		errs := make(chan error, 2)
		for _, c := range []*rawClient{a, b} {
			go func(c *rawClient) {
				<-start
				_, err := c.nc.Write(stream)
				errs <- err
			}(c)
		}
		close(start)
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		a.recvOp(wire.OpStatsReply)
		b.recvOp(wire.OpStatsReply)
		if v := s.counter(name).c.Value(); v != n {
			t.Fatalf("round %d: value %d after both connections sent seqs 1..%d, want %d (each seq applied once)", r, v, n, n)
		}
	}
}

func TestResetRefusedUnderWaiters(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(&wire.Frame{Op: wire.OpCheck, Name: "z", ID: 1, Level: 100})
	// The wait must be registered before Reset sees it; same pipeline, so
	// ordering is guaranteed by the reader loop.
	c.send(&wire.Frame{Op: wire.OpReset, Name: "z", ID: 2})
	if f := c.recv(); f.Op != wire.OpError || f.ID != 2 {
		t.Fatalf("reset under a waiter = %s, want error", f.Op)
	}
	c.send(&wire.Frame{Op: wire.OpCancel, ID: 1})
	if f := c.recv(); f.Op != wire.OpCancelled {
		t.Fatalf("cancel reply = %s", f.Op)
	}
	// The cancelled wait left the engine before its OpCancelled was
	// queued, so the first Reset after it succeeds: no retry.
	c.send(&wire.Frame{Op: wire.OpReset, Name: "z", ID: 3})
	if f := c.recv(); f.Op != wire.OpResetOK || f.ID != 3 {
		t.Fatalf("reset after the last cancel = %s id %d (%q), want ResetOK id 3", f.Op, f.ID, f.Msg)
	}
	// The same holds for a Reset pipelined right behind the Cancel.
	c.send(&wire.Frame{Op: wire.OpCheck, Name: "z", ID: 4, Level: 100})
	c.send(
		&wire.Frame{Op: wire.OpCancel, ID: 4},
		&wire.Frame{Op: wire.OpReset, Name: "z", ID: 5},
	)
	if f := c.recv(); f.Op != wire.OpCancelled || f.ID != 4 {
		t.Fatalf("cancel reply = %s id %d, want cancelled id 4", f.Op, f.ID)
	}
	if f := c.recv(); f.Op != wire.OpResetOK || f.ID != 5 {
		t.Fatalf("reset pipelined behind the cancel = %s id %d (%q), want ResetOK id 5", f.Op, f.ID, f.Msg)
	}
}

// TestCheckSatisfiedBeatsCancelled pins the frame-order rule for plain
// waits, as TestWaitForSatisfiedBeatsCancelled does for predicates: a
// Cancel that follows the Increment satisfying its Check, on the same
// connection, is answered by the wake and never by OpCancelled.
func TestCheckSatisfiedBeatsCancelled(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(&wire.Frame{Op: wire.OpCheck, Name: "race", ID: 4, Level: 1})
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "race", Seq: 1, Amount: 1},
		&wire.Frame{Op: wire.OpCancel, ID: 4},
		&wire.Frame{Op: wire.OpStats, Name: "race", ID: 5}, // fence: answered after the cancel
	)
	sawWake := false
	for {
		f := c.recv()
		switch f.Op {
		case wire.OpWake:
			sawWake = true
		case wire.OpCancelled:
			t.Fatal("cancelled frame for a satisfied wait")
		case wire.OpStatsReply:
			if !sawWake {
				t.Fatal("no wake before the post-cancel fence")
			}
			return
		}
	}
}

// TestCheckCancelRacesWake is TestWaitForCancelRacesKick for plain
// waits: each round connection A parks an OpCheck and cancels it while
// connection B sends the increment that satisfies it, so the hook's
// fire, on B's reader, races A's cancel and the recycling of A's wait
// entry. Every round reuses one id, so an entry recycled while it is
// still in use would answer the wrong round. Whichever side wins, A
// hears exactly one answer per round, the wait table ends empty, and
// no hook is left behind to refuse the final Reset.
func TestCheckCancelRacesWake(t *testing.T) {
	s, addr := startServer(t)
	a := dialRaw(t, addr)
	a.hello(0)
	b := dialRaw(t, addr)
	b.hello(0)
	const name, id, rounds = "wake", 1, 200
	for round := uint64(1); round <= rounds; round++ {
		// The OpStats reply fences the OpCheck: A's frames run in order.
		fence := rounds + round
		a.send(
			&wire.Frame{Op: wire.OpCheck, Name: name, ID: id, Level: round},
			&wire.Frame{Op: wire.OpStats, Name: name, ID: fence},
		)
		if f := a.recv(); f.Op != wire.OpStatsReply || f.ID != fence {
			t.Fatalf("round %d: %s (id %d) before the check was parked, want the fence's stats reply", round, f.Op, f.ID)
		}
		inc := wire.Append(nil, &wire.Frame{Op: wire.OpIncrement, Name: name, Seq: round, Amount: 1})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.nc.Write(inc); err != nil {
				t.Errorf("round %d: increment: %v", round, err)
			}
		}()
		a.send(&wire.Frame{Op: wire.OpCancel, ID: id})
		wg.Wait()
		// The IncAck follows the increment's wake path, hooks included,
		// so a wake it queued for A precedes the fence below.
		if f := b.recvOp(wire.OpIncAck); f.Seq != round {
			t.Fatalf("round %d: IncAck seq = %d", round, f.Seq)
		}
		fence += rounds
		a.send(&wire.Frame{Op: wire.OpStats, Name: name, ID: fence})
		answers := 0
		for f := a.recv(); f.Op != wire.OpStatsReply || f.ID != fence; f = a.recv() {
			switch f.Op {
			case wire.OpWake, wire.OpCancelled:
				if f.ID != id {
					t.Fatalf("round %d: %s for id %d", round, f.Op, f.ID)
				}
				answers++
			}
		}
		if answers != 1 {
			t.Fatalf("round %d: %d answers for one wait, want exactly 1", round, answers)
		}
	}
	if n := parkedWaits(s); n != 0 {
		t.Fatalf("%d waits parked after every wait was answered, want 0", n)
	}
	a.send(&wire.Frame{Op: wire.OpReset, Name: name, ID: 3*rounds + 1})
	if f := a.recv(); f.Op != wire.OpResetOK || f.ID != 3*rounds+1 {
		t.Fatalf("final Reset answered %s (id %d) %q, want ResetOK", f.Op, f.ID, f.Msg)
	}
}

// parkedWaits counts the entries in every connection's wait table.
func parkedWaits(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		c.waitMu.Lock()
		n += len(c.waits)
		c.waitMu.Unlock()
	}
	return n
}

func TestIncrementOverflowReported(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "o", Seq: 1, Amount: ^uint64(0) - 5},
		&wire.Frame{Op: wire.OpIncrement, Name: "o", Seq: 2, Amount: 100},
	)
	f := c.recvOp(wire.OpError)
	if f.ID != 2 {
		t.Fatalf("overflow reported on seq %d, want 2", f.ID)
	}
	// The connection survives a caller bug: the counter still answers.
	c.send(&wire.Frame{Op: wire.OpCheck, Name: "o", ID: 1, Level: 1})
	if f := c.recvOp(wire.OpWake); f.ID != 1 {
		t.Fatalf("wake id = %d", f.ID)
	}
}

// TestIncrementsOverflowReported: an OpIncrements entry that would
// overflow its counter is answered by an OpError carrying that entry's
// seq, and every other entry of the frame applies, before it and after
// it, on its own counter and on the overflowing one.
func TestIncrementsOverflowReported(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(&wire.Frame{Op: wire.OpIncrements, Seq: 1, Incs: []wire.Inc{
		{Slot: 0, Name: "o", Amount: ^uint64(0) - 5},
		{Slot: 0, Amount: 100},
		{Slot: 1, Name: "p", Amount: 3},
		{Slot: 0, Amount: 2},
	}})
	if f := c.recvOp(wire.OpError); f.ID != 2 {
		t.Fatalf("overflow reported on seq %d, want 2", f.ID)
	}
	c.send(
		&wire.Frame{Op: wire.OpCheck, Name: "o", ID: 10, Level: ^uint64(0) - 3},
		&wire.Frame{Op: wire.OpCheck, Name: "p", ID: 11, Level: 3},
	)
	got := map[uint64]bool{}
	for len(got) < 2 {
		got[c.recvOp(wire.OpWake).ID] = true
	}
	if !got[10] || !got[11] {
		t.Fatalf("wakes for ids %v, want 10 and 11: the entries around the overflow did not apply", got)
	}
}

// TestDuplicateEntryBindsSlot: a binding takes effect even when its
// entry is a duplicate. Two connections of one session: the first
// applies a frame that binds slot 0, the second re-sends that frame,
// as a client re-sends its unacknowledged tail after a reconnect, and
// then refers to slot 0. The re-sent entries apply nothing, the
// reference applies once on the counter the duplicate bound, and the
// connection stays open.
func TestDuplicateEntryBindsSlot(t *testing.T) {
	_, addr := startServer(t)
	tail := &wire.Frame{Op: wire.OpIncrements, Seq: 1, Incs: []wire.Inc{
		{Slot: 0, Name: "dup", Amount: 1}, {Slot: 0, Amount: 1},
	}}
	a := dialRaw(t, addr)
	sess := a.hello(0).Session
	a.send(tail)
	if f := a.recvOp(wire.OpIncAck); f.Seq != 2 {
		t.Fatalf("ack seq = %d, want 2", f.Seq)
	}
	b := dialRaw(t, addr)
	if w := b.hello(sess); w.Seq != 2 {
		t.Fatalf("resumed lastSeq = %d, want 2", w.Seq)
	}
	b.send(
		tail,
		&wire.Frame{Op: wire.OpIncrements, Seq: 3, Incs: []wire.Inc{{Slot: 0, Amount: 5}}},
		&wire.Frame{Op: wire.OpCheck, Name: "dup", ID: 10, Level: 7},
		&wire.Frame{Op: wire.OpCheck, Name: "dup", ID: 11, Level: 8}, // would pass had the tail applied twice
		&wire.Frame{Op: wire.OpCancel, ID: 11},
	)
	if f := b.recvOp(wire.OpWake); f.ID != 10 {
		t.Fatalf("wake id = %d, want 10", f.ID)
	}
	if f := b.recvOp(wire.OpCancelled); f.ID != 11 {
		t.Fatalf("cancelled id = %d, want 11", f.ID)
	}
}

func TestStatsReply(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "s", Seq: 1, Amount: 4},
		&wire.Frame{Op: wire.OpCheck, Name: "s", ID: 1, Level: 4},
	)
	c.recvOp(wire.OpWake)
	c.send(&wire.Frame{Op: wire.OpStats, Name: "s", ID: 2})
	f := c.recvOp(wire.OpStatsReply)
	if f.ID != 2 {
		t.Fatalf("stats reply id = %d, want 2", f.ID)
	}
	if f.Stats.Increments != 1 {
		t.Fatalf("stats Increments = %d, want 1", f.Stats.Increments)
	}
}

// TestSentinelCountsNoCheck: an OpCheck counts in the hosted counter's
// engine stats as an in-process Check does, a parked one as a suspend
// and one answered at once as an immediate check, while an OpSentinel
// counts neither way, as an in-process hook's arming.
func TestSentinelCountsNoCheck(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	if w := c.hello(0); w.Features&wire.FeatureSentinel == 0 {
		t.Fatalf("v3 welcome features = %#x, want FeatureSentinel set", w.Features)
	}
	// stats sends frames, then an OpStats the server answers after them.
	stats := func(what string, want uint64, frames ...*wire.Frame) {
		t.Helper()
		c.send(append(frames, &wire.Frame{Op: wire.OpStats, Name: "n", ID: 100})...)
		f := c.recvOp(wire.OpStatsReply)
		if f.Stats.Suspends != want || f.Stats.ImmediateChecks != want {
			t.Fatalf("after %s: Suspends %d, ImmediateChecks %d; want %d of each",
				what, f.Stats.Suspends, f.Stats.ImmediateChecks, want)
		}
	}
	c.send(&wire.Frame{Op: wire.OpIncrement, Name: "n", Seq: 1, Amount: 2})
	stats("two sentinels, one answered at once and one parked", 0,
		&wire.Frame{Op: wire.OpSentinel, Name: "n", ID: 1, Level: 2},
		&wire.Frame{Op: wire.OpSentinel, Name: "n", ID: 2, Level: 5})
	stats("two checks, one answered at once and one parked", 1,
		&wire.Frame{Op: wire.OpCheck, Name: "n", ID: 3, Level: 2},
		&wire.Frame{Op: wire.OpCheck, Name: "n", ID: 4, Level: 5})
}

func TestProtocolErrorsCloseConnection(t *testing.T) {
	for name, frames := range map[string][]*wire.Frame{
		"before-hello": {{Op: wire.OpIncrement, Name: "x", Seq: 1, Amount: 1}},
		"bad-version":  {{Op: wire.OpHello, Seq: wire.Version + 1}},
		"server-opcode": {
			{Op: wire.OpHello, Seq: wire.Version},
			{Op: wire.OpWake, ID: 1},
		},
		"dup-wait-id": {
			{Op: wire.OpHello, Seq: wire.Version},
			{Op: wire.OpCheck, Name: "x", ID: 7, Level: 100},
			{Op: wire.OpCheck, Name: "x", ID: 7, Level: 200},
		},
		// A connection's session and dialect are fixed at its one hello.
		"second-hello": {
			{Op: wire.OpHello, Seq: wire.Version},
			{Op: wire.OpHello, Session: 99, Seq: wire.MinVersion},
		},
		// Batched increments: only a v3 session may send them, and every
		// entry names a slot below wire.MaxSlots that the connection has
		// bound.
		"v2-increments": {
			{Op: wire.OpHello, Seq: wire.MinVersion},
			{Op: wire.OpIncrements, Seq: 1, Incs: []wire.Inc{{Slot: 0, Name: "x", Amount: 1}}},
		},
		"unbound-slot": {
			{Op: wire.OpHello, Seq: wire.Version},
			{Op: wire.OpIncrements, Seq: 1, Incs: []wire.Inc{{Slot: 0, Name: "x", Amount: 1}, {Slot: 1, Amount: 1}}},
		},
		"slot-out-of-range": {
			{Op: wire.OpHello, Seq: wire.Version},
			{Op: wire.OpIncrements, Seq: 1, Incs: []wire.Inc{{Slot: wire.MaxSlots, Name: "x", Amount: 1}}},
		},
		"empty-increments": {
			{Op: wire.OpHello, Seq: wire.Version},
			{Op: wire.OpIncrements, Seq: 1},
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t)
			c := dialRaw(t, addr)
			c.send(frames...)
			c.expectClosed()
		})
	}
}

// TestNoGoroutinePerWait pins the server's structural guarantee directly:
// hundreds of blocked waits on one connection, over two counters, cost
// no goroutine beyond the connection pair that served the handshake.
func TestNoGoroutinePerWait(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	// Two counters busy at once, many pending waits on each.
	const waits = 300
	baseline := runtime.NumGoroutine()
	for i := 0; i < waits; i++ {
		name := "g1"
		if i%2 == 0 {
			name = "g2"
		}
		c.send(&wire.Frame{Op: wire.OpCheck, Name: name, ID: uint64(i + 1), Level: uint64(1000 + i)})
	}
	// Wait until every registration is parked (send a fence
	// increment+check and await its wake: the reader is in-order).
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "g1", Seq: 1, Amount: 1},
		&wire.Frame{Op: wire.OpCheck, Name: "g1", ID: waits + 1, Level: 1},
	)
	c.recvOp(wire.OpWake)
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines = %d with %d pending waits (baseline %d): per-wait goroutines leaked",
			n, waits, baseline)
	}
	// One increment wakes every entitled waiter.
	c.send(&wire.Frame{Op: wire.OpIncrement, Name: "g1", Seq: 2, Amount: 5000})
	c.send(&wire.Frame{Op: wire.OpIncrement, Name: "g2", Seq: 3, Amount: 5000})
	for got := 0; got < waits; {
		if f := c.recv(); f.Op == wire.OpWake && f.ID <= waits {
			got++
		}
	}
}

// TestNoWaitParksAfterTeardown: the reader may still decode frames its
// buffer holds after teardown swept the wait table. A wait among them is
// refused, not parked where no sweep would ever cancel it.
func TestNoWaitParksAfterTeardown(t *testing.T) {
	s := New()
	nc, peer := net.Pipe()
	defer peer.Close()
	c := newConn(s, nc)
	if err := c.handle(&wire.Frame{Op: wire.OpHello, Seq: wire.Version}); err != nil {
		t.Fatal(err)
	}
	c.teardown()
	if err := c.handle(&wire.Frame{Op: wire.OpCheck, Name: "late", ID: 1, Level: 5}); err == nil {
		t.Fatal("a wait was accepted after teardown")
	}
	if err := s.counter("late").tryReset(); err != nil {
		t.Fatalf("a wait stayed parked after teardown: %v", err)
	}
}

// TestResolvedNamesBounded pins the per-connection name table: it never
// holds more than maxResolved names, a name past the bound empties it
// and starts it over (so a connection whose names change keeps its
// current ones cached), every name resolves to the one hosted counter
// all connections share, a cached name decodes to that counter's own
// string, and a bad name is refused.
func TestResolvedNamesBounded(t *testing.T) {
	s := New()
	c := newConn(s, nil)
	const extra = 10
	for i := 0; i < maxResolved+extra; i++ {
		name := fmt.Sprintf("n%d", i)
		h, err := c.hosted(name)
		if err != nil {
			t.Fatal(err)
		}
		if h != s.counter(name) {
			t.Fatalf("%q resolved to a counter the server does not host", name)
		}
		if len(c.resolved) > maxResolved {
			t.Fatalf("table holds %d names, over the bound %d", len(c.resolved), maxResolved)
		}
	}
	// Name maxResolved started the table over, so it holds the newest
	// names, which resolve from it, and none of the older ones.
	if len(c.resolved) != extra {
		t.Fatalf("table holds %d names, want the %d since it last started over", len(c.resolved), extra)
	}
	for i := maxResolved; i < maxResolved+extra; i++ {
		name := fmt.Sprintf("n%d", i)
		if h, _ := c.hosted(name); h != s.counter(name) || len(c.resolved) != extra {
			t.Fatalf("cached %q resolved to a counter the server does not host", name)
		}
	}
	recent, old := fmt.Sprintf("n%d", maxResolved), "n0"
	if got := c.internName([]byte(recent)); unsafe.StringData(got) != unsafe.StringData(s.counter(recent).name) {
		t.Fatalf("cached name %q decoded to a fresh string", recent)
	}
	if got := c.internName([]byte(old)); got != old || unsafe.StringData(got) == unsafe.StringData(s.counter(old).name) {
		t.Fatalf("uncached name %q decoded to %q from the table", old, got)
	}
	if _, err := c.hosted(""); err == nil {
		t.Fatal("empty name resolved")
	}
}
