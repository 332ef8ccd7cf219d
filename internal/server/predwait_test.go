package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"monotonic/internal/predicate"
	"monotonic/internal/wire"
)

// helloV performs the handshake at an explicit protocol version.
func (c *rawClient) helloV(version, session uint64) wire.Frame {
	c.t.Helper()
	c.send(&wire.Frame{Op: wire.OpHello, Session: session, Seq: version})
	f := c.recv()
	if f.Op != wire.OpWelcome {
		c.t.Fatalf("handshake reply %s, want welcome", f.Op)
	}
	return f
}

func TestNegotiation(t *testing.T) {
	_, addr := startServer(t)

	// A v3 hello is welcomed with the feature bits.
	c3 := dialRaw(t, addr)
	if w := c3.helloV(3, 0); w.Features&wire.FeatureWaitFor == 0 {
		t.Fatalf("v3 welcome features = %#x, want FeatureWaitFor set", w.Features)
	}

	// A v2 hello is welcomed with a v2-shaped frame: no feature bits.
	c2 := dialRaw(t, addr)
	if w := c2.helloV(2, 0); w.Features != 0 {
		t.Fatalf("v2 welcome features = %#x, want 0", w.Features)
	}

	// A v2 session still does ordinary counter work against the v3 server.
	c2.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "neg", Seq: 1, Amount: 2},
		&wire.Frame{Op: wire.OpCheck, Name: "neg", ID: 1, Level: 2},
	)
	if f := c2.recvOp(wire.OpWake); f.ID != 1 {
		t.Fatalf("wake id = %d, want 1", f.ID)
	}

	// Out-of-range versions are rejected (connection closes).
	for _, v := range []uint64{1, wire.Version + 1} {
		bad := dialRaw(t, addr)
		bad.send(&wire.Frame{Op: wire.OpHello, Seq: v})
		bad.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := wire.Read(bad.br); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

func TestWaitForQuorumParksOneEntry(t *testing.T) {
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.helloV(3, 0)

	// 2-of-3 quorum at level 2. Nothing satisfied yet.
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 7, Pred: predicate.KindThreshold, K: 2, Watch: []wire.Watch{
		{Name: "q0", Level: 2}, {Name: "q1", Level: 2}, {Name: "q2", Level: 2},
	}})

	deadline := time.Now().Add(5 * time.Second)
	for s.PredicateWaits() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 1 {
		t.Fatalf("PredicateWaits = %d, want 1 (one entry per session predicate)", n)
	}

	// One counter reaching its level does not flip a 2-of-3 quorum.
	c.send(&wire.Frame{Op: wire.OpIncrement, Name: "q0", Seq: 1, Amount: 2})
	c.recvOp(wire.OpIncAck)
	if n := s.PredicateWaits(); n != 1 {
		t.Fatalf("PredicateWaits after first arrival = %d, want 1", n)
	}

	// The second arrival flips it: one wake, entry gone.
	c.send(&wire.Frame{Op: wire.OpIncrement, Name: "q2", Seq: 2, Amount: 5})
	if f := c.recvOp(wire.OpWake); f.ID != 7 {
		t.Fatalf("wake id = %d, want 7", f.ID)
	}
	for s.PredicateWaits() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits after wake = %d, want 0", n)
	}
}

func TestWaitForSumAlreadySatisfied(t *testing.T) {
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.helloV(3, 0)
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "s0", Seq: 1, Amount: 6},
		&wire.Frame{Op: wire.OpIncrement, Name: "s1", Seq: 2, Amount: 6},
		&wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: predicate.KindSum, Target: 10, Watch: []wire.Watch{
			{Name: "s0"}, {Name: "s1"},
		}},
	)
	if f := c.recvOp(wire.OpWake); f.ID != 1 {
		t.Fatalf("wake id = %d, want 1", f.ID)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits = %d, want 0 (satisfied immediately)", n)
	}
}

func TestWaitForCancel(t *testing.T) {
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.helloV(3, 0)
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 9, Pred: predicate.KindSum, Target: 100, Watch: []wire.Watch{
		{Name: "x"}, {Name: "y"},
	}})
	c.send(&wire.Frame{Op: wire.OpWaitForCancel, ID: 9})
	if f := c.recvOp(wire.OpCancelled); f.ID != 9 {
		t.Fatalf("cancelled id = %d, want 9", f.ID)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits after cancel = %d, want 0", n)
	}
	// The counters carry no leftover sentinels: Reset succeeds.
	c.send(&wire.Frame{Op: wire.OpReset, Name: "x", ID: 10})
	if f := c.recvOp(wire.OpResetOK); f.ID != 10 {
		t.Fatalf("reset reply id = %d", f.ID)
	}
}

func TestWaitForSatisfiedBeatsCancelled(t *testing.T) {
	// Satisfy and cancel in the same pipelined burst: the wake must win
	// and no OpCancelled may follow for that id.
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.helloV(3, 0)
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 4, Pred: predicate.KindThreshold, K: 1, Watch: []wire.Watch{
		{Name: "race", Level: 1},
	}})
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "race", Seq: 1, Amount: 1},
		&wire.Frame{Op: wire.OpWaitForCancel, ID: 4},
		&wire.Frame{Op: wire.OpStats, Name: "race", ID: 5}, // fence: answered after the cancel
	)
	sawWake := false
	for {
		f := c.recv()
		switch f.Op {
		case wire.OpWake:
			sawWake = true
		case wire.OpCancelled:
			t.Fatal("cancelled frame for a satisfied predicate wait")
		case wire.OpStatsReply:
			if !sawWake {
				t.Fatal("no wake before the post-cancel fence")
			}
			return
		}
	}
}

// TestWaitForCancelRacesKick races the increment that flips a parked
// predicate, sent by another connection, against the waiting
// connection's cancel. The kick runs on the incrementing connection's
// reader unless the Cond's lock is held — typically by cancelWait's
// Poll — when it falls back to a goroutine. Whichever side wins, the
// waiter hears exactly one answer per id, the predicate entry goes, and
// no sentinel is left behind to refuse the final Reset.
func TestWaitForCancelRacesKick(t *testing.T) {
	s, addr := startServer(t)
	a := dialRaw(t, addr)
	a.helloV(3, 0)
	b := dialRaw(t, addr)
	b.helloV(3, 0)
	const name, rounds = "kick", 200
	deadline := time.Now().Add(30 * time.Second)
	for round := uint64(1); round <= rounds; round++ {
		a.send(&wire.Frame{Op: wire.OpWaitFor, ID: round, Pred: predicate.KindThreshold, K: 1, Watch: []wire.Watch{
			{Name: name, Level: round},
		}})
		for s.PredicateWaits() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the predicate wait never parked", round)
			}
			time.Sleep(50 * time.Microsecond)
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
		a.send(&wire.Frame{Op: wire.OpWaitForCancel, ID: round})
		wg.Wait()
		// The IncAck follows the increment's wake path, kicks included,
		// so every answer a kick queues precedes the fence below.
		if f := b.recvOp(wire.OpIncAck); f.Seq != round {
			t.Fatalf("round %d: IncAck seq = %d", round, f.Seq)
		}
		fence := rounds + round
		a.send(&wire.Frame{Op: wire.OpStats, Name: name, ID: fence})
		answers := 0
		for f := a.recv(); f.Op != wire.OpStatsReply || f.ID != fence; f = a.recv() {
			switch f.Op {
			case wire.OpWake, wire.OpCancelled:
				if f.ID != round {
					t.Fatalf("round %d: %s for id %d", round, f.Op, f.ID)
				}
				answers++
			}
		}
		if answers != 1 {
			t.Fatalf("round %d: %d answers for one wait, want exactly 1", round, answers)
		}
	}
	for s.PredicateWaits() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits = %d after every wait was answered, want 0", n)
	}
	a.send(&wire.Frame{Op: wire.OpReset, Name: name, ID: 2*rounds + 1})
	if f := a.recv(); f.Op != wire.OpResetOK || f.ID != 2*rounds+1 {
		t.Fatalf("final Reset answered %s (id %d) %q, want ResetOK", f.Op, f.ID, f.Msg)
	}
}

func TestWaitForProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	// Each rejected frame closes the connection unanswered: helloV has
	// read the Welcome, so any frame before the close answers it.
	rejected := func(c *rawClient, what string) {
		t.Helper()
		if ops := c.expectClosed(); len(ops) != 0 {
			t.Fatalf("%s waitfor accepted: answered %v before the close", what, ops)
		}
	}

	// v2 sessions may not send WaitFor.
	c2 := dialRaw(t, addr)
	c2.helloV(2, 0)
	c2.send(&wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: predicate.KindSum, Target: 1, Watch: []wire.Watch{{Name: "a"}}})
	rejected(c2, "v2")

	// A bad quorum size or an unknown predicate kind closes the
	// connection. The k = 0 and kind 257 frames would be answered at
	// once if accepted: k = 0 over levels the values cover, and kind 257
	// is a sum with target 0 to a conversion that narrows it to a byte.
	for _, bad := range []struct {
		what string
		f    wire.Frame
	}{
		{"k > n", wire.Frame{Pred: predicate.KindThreshold, K: 3, Watch: []wire.Watch{{Name: "a", Level: 1}, {Name: "b", Level: 1}}}},
		{"k = 0", wire.Frame{Pred: predicate.KindThreshold, K: 0, Watch: []wire.Watch{{Name: "a"}, {Name: "b"}}}},
		{"kind 99", wire.Frame{Pred: 99, Watch: []wire.Watch{{Name: "a"}}}},
		{"kind 257", wire.Frame{Pred: 257, Watch: []wire.Watch{{Name: "a"}}}},
	} {
		c := dialRaw(t, addr)
		c.helloV(3, 0)
		bad.f.Op, bad.f.ID = wire.OpWaitFor, 1
		c.send(&bad.f)
		rejected(c, bad.what)
	}

	// Duplicate wait id (across check and predicate tables) closes; the
	// Check parks, so it is not answered either.
	c5 := dialRaw(t, addr)
	c5.helloV(3, 0)
	c5.send(
		&wire.Frame{Op: wire.OpCheck, Name: "a", ID: 2, Level: 10},
		&wire.Frame{Op: wire.OpWaitFor, ID: 2, Pred: predicate.KindSum, Target: 5, Watch: []wire.Watch{{Name: "a"}}},
	)
	rejected(c5, "duplicate-id")
}

func TestWaitForTeardownUnparks(t *testing.T) {
	// A connection dying with a parked predicate wait must leave no
	// entry and no sentinels behind.
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.helloV(3, 0)
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: predicate.KindSum, Target: 100, Watch: []wire.Watch{
		{Name: "td0"}, {Name: "td1"},
	}})
	deadline := time.Now().Add(5 * time.Second)
	for s.PredicateWaits() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.nc.Close()
	for s.PredicateWaits() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits after teardown = %d, want 0", n)
	}
	// Fresh connection can Reset the counters: nothing is parked on them.
	c2 := dialRaw(t, addr)
	c2.helloV(3, 0)
	deadline = time.Now().Add(5 * time.Second)
	for {
		c2.send(&wire.Frame{Op: wire.OpReset, Name: "td0", ID: 1})
		f := c2.recv()
		if f.Op == wire.OpResetOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reset after teardown kept failing: %+v", f)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// handshake returns a connection with no socket that has said Hello at
// the current version, its Welcome drained.
func handshake(t *testing.T) *conn {
	t.Helper()
	c := newConn(New(), nil)
	if err := c.handle(&wire.Frame{Op: wire.OpHello, Seq: wire.Version}); err != nil {
		t.Fatal(err)
	}
	c.drain(nil)
	return c
}

// drained decodes what the connection has queued since the last drain,
// waiting up to five seconds for something to be queued.
func drained(t *testing.T, c *conn) []wire.Frame {
	t.Helper()
	took := make(chan []byte, 1)
	go func() {
		queued, _ := c.drain(nil)
		took <- queued
	}()
	var queued []byte
	select {
	case queued = <-took:
	case <-time.After(5 * time.Second):
		t.Fatal("nothing queued within 5s")
	}
	var frames []wire.Frame
	br := bufio.NewReader(bytes.NewReader(queued))
	for {
		f, err := wire.Read(br)
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
}

// TestRenewReusesAnsweredConds pins where a predicate's Cond goes once
// its wait is answered — by a wake, at registration, or by a cancel —
// and that the connection's next OpWaitFor renews it in place, whatever
// that predicate's kind and width.
func TestRenewReusesAnsweredConds(t *testing.T) {
	c := handshake(t)
	park := func(f *wire.Frame) *predicate.Cond {
		t.Helper()
		f.Op = wire.OpWaitFor
		if err := c.handle(f); err != nil {
			t.Fatal(err)
		}
		c.waitMu.Lock()
		defer c.waitMu.Unlock()
		if w := c.waits[f.ID]; w != nil {
			return w.cond
		}
		return nil
	}
	kept := func() []*predicate.Cond {
		c.waitMu.Lock()
		defer c.waitMu.Unlock()
		return append([]*predicate.Cond(nil), c.conds...)
	}

	first := park(&wire.Frame{ID: 1, Pred: predicate.KindThreshold, K: 1, Watch: []wire.Watch{{Name: "r0", Level: 1}, {Name: "r1", Level: 1}}})
	if err := c.handle(&wire.Frame{Op: wire.OpIncrement, Name: "r1", Seq: 1, Amount: 1}); err != nil {
		t.Fatal(err)
	}
	if f := drained(t, c); f[0].Op != wire.OpWake || f[0].ID != 1 {
		t.Fatalf("after the flipping increment: %+v, want the OpWake for id 1", f)
	}
	if k := kept(); len(k) != 1 || k[0] != first {
		t.Fatalf("kept Conds after the wake = %v, want the answered one", k)
	}

	// A sum over three names renews it, growing its slots.
	if got := park(&wire.Frame{ID: 2, Pred: predicate.KindSum, Target: 10, Watch: []wire.Watch{{Name: "r0"}, {Name: "r1"}, {Name: "r2"}}}); got != first {
		t.Fatal("the next OpWaitFor did not renew the answered Cond")
	}
	if n := first.Cap(); n != 3 {
		t.Fatalf("renewed Cond watches up to %d counters, want 3", n)
	}
	if len(kept()) != 0 {
		t.Fatal("a renewed Cond is still kept")
	}
	if err := c.handle(&wire.Frame{Op: wire.OpWaitForCancel, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if f := drained(t, c); f[0].Op != wire.OpCancelled || f[0].ID != 2 {
		t.Fatalf("after the cancel: %+v, want OpCancelled for id 2", f)
	}
	if k := kept(); len(k) != 1 || k[0] != first {
		t.Fatal("a cancelled predicate's Cond was not kept")
	}

	// A predicate that holds at registration is answered at once and
	// keeps the Cond it was given.
	if got := park(&wire.Frame{ID: 3, Pred: predicate.KindSum, Target: 1, Watch: []wire.Watch{{Name: "r1"}}}); got != nil {
		t.Fatal("a satisfied predicate stayed parked")
	}
	if f := drained(t, c); f[0].Op != wire.OpWake || f[0].ID != 3 {
		t.Fatalf("after a satisfied OpWaitFor: %+v, want the OpWake for id 3", f)
	}
	if k := kept(); len(k) != 1 || k[0] != first {
		t.Fatal("an OpWaitFor answered at registration did not keep its Cond")
	}
	for _, name := range []string{"r0", "r1", "r2"} {
		h, _ := c.hosted(name)
		if err := h.tryReset(); err != nil {
			t.Fatal(err) // a sentinel left behind
		}
	}
}

// TestRenewRacesLateFires parks one 1-of-2 predicate per round and
// flips it from two goroutines incrementing both names at once, as two
// other connections' readers would. The first sentinel fire settles the
// Cond; the other's cancel often loses to a fire still in the engine's
// wake path when the next round's OpWaitFor renews the Cond, which must
// then wait for that fire or take a new Cond. Every round must be
// answered by exactly one OpWake, and no sentinel may be left behind.
// The window opens only under real preemption; CI runs this with -race
// at GOMAXPROCS=4.
func TestRenewRacesLateFires(t *testing.T) {
	c := handshake(t)
	x, _ := c.hosted("late-x")
	y, _ := c.hosted("late-y")
	const rounds = 300
	conds := make(map[*predicate.Cond]bool)
	var wg sync.WaitGroup
	for r := uint64(1); r <= rounds; r++ {
		f := &wire.Frame{Op: wire.OpWaitFor, ID: r, Pred: predicate.KindThreshold, K: 1, Watch: []wire.Watch{{Name: x.name, Level: r}, {Name: y.name, Level: r}}}
		if err := c.handle(f); err != nil {
			t.Fatal(err)
		}
		c.waitMu.Lock()
		conds[c.waits[r].cond] = true
		c.waitMu.Unlock()
		wg.Add(2)
		go func() { defer wg.Done(); x.c.Increment(1) }()
		go func() { defer wg.Done(); y.c.Increment(1) }()
		if got := drained(t, c); len(got) != 1 || got[0].Op != wire.OpWake || got[0].ID != r {
			t.Fatalf("round %d: queued %+v, want one OpWake for id %d", r, got, r)
		}
	}
	wg.Wait()
	t.Logf("%d Conds served %d predicates", len(conds), rounds)
	if len(c.wq) != 0 {
		t.Fatalf("frames queued after the last round's wake: %d bytes", len(c.wq))
	}
	if len(c.waits) != 0 {
		t.Fatalf("%d waits parked after every round was answered", len(c.waits))
	}
	for _, h := range []*hosted{x, y} {
		if v := h.c.Value(); v != rounds {
			t.Fatalf("%s = %d after %d rounds", h.name, v, rounds)
		}
		if err := h.tryReset(); err != nil {
			t.Fatal(err) // a sentinel left behind
		}
	}
}

// TestSpareRetentionBounded parks and answers more than maxSpareWaits
// predicates over wire.MaxWatch names on one connection, then as many
// over one name: at most maxSpareWaits Conds are kept for renewal and
// none watches more than maxSpareWidth counters, so a storm of wide
// predicates cannot pin its peak and its slots do not outlive it.
func TestSpareRetentionBounded(t *testing.T) {
	c := handshake(t)
	wide := make([]wire.Watch, wire.MaxWatch)
	for i := range wide {
		wide[i] = wire.Watch{Name: fmt.Sprintf("wide%02d", i), Level: 1}
	}
	var seq uint64
	storm := func(watch []wire.Watch) {
		t.Helper()
		const n = maxSpareWaits + 8
		for id := uint64(1); id <= n; id++ {
			if err := c.handle(&wire.Frame{Op: wire.OpWaitFor, ID: id, Pred: predicate.KindThreshold, K: 1, Watch: watch}); err != nil {
				t.Fatal(err)
			}
		}
		seq++
		if err := c.handle(&wire.Frame{Op: wire.OpIncrement, Name: watch[0].Name, Seq: seq, Amount: 1}); err != nil {
			t.Fatal(err)
		}
		if f := drained(t, c); len(f) != n {
			t.Fatalf("%d frames queued for %d flipped predicates, want one OpWake each", len(f), n)
		}
		c.waitMu.Lock()
		defer c.waitMu.Unlock()
		if len(c.waits) != 0 {
			t.Fatalf("%d predicates still parked", len(c.waits))
		}
		if len(c.conds) > maxSpareWaits {
			t.Fatalf("%d Conds kept, want at most %d", len(c.conds), maxSpareWaits)
		}
		for _, cond := range c.conds {
			if cond.Cap() > maxSpareWidth {
				t.Fatalf("after the %d-wide storm a kept Cond holds %d slots, want at most %d", len(watch), cond.Cap(), maxSpareWidth)
			}
		}
		t.Logf("%d-wide storm: %d Conds kept", len(watch), len(c.conds))
	}
	storm(wide)
	storm([]wire.Watch{{Name: "narrow", Level: 1}})
}

// TestWideCondsNotKept answers eight predicates over maxSpareWidth+1
// names and one over maxSpareWidth names on one connection, all parked
// before any is answered: only the narrow one's Cond is kept for
// renewal, since the others have watched more than maxSpareWidth
// counters.
func TestWideCondsNotKept(t *testing.T) {
	c := handshake(t)
	watch := make([]wire.Watch, maxSpareWidth+1)
	for i := range watch {
		watch[i] = wire.Watch{Name: fmt.Sprintf("five%d", i), Level: 1}
	}
	const n = 8
	for id := uint64(0); id <= n; id++ {
		w := watch
		if id == 0 {
			w = watch[:maxSpareWidth]
		}
		if err := c.handle(&wire.Frame{Op: wire.OpWaitFor, ID: id, Pred: predicate.KindThreshold, K: 1, Watch: w}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.handle(&wire.Frame{Op: wire.OpIncrement, Name: watch[0].Name, Seq: 1, Amount: 1}); err != nil {
		t.Fatal(err)
	}
	if f := drained(t, c); len(f) != n+1 {
		t.Fatalf("%d frames queued for %d flipped predicates, want one OpWake each", len(f), n+1)
	}
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	for _, cond := range c.conds {
		if cond.Cap() > maxSpareWidth {
			t.Errorf("a kept Cond watches %d counters, want at most %d", cond.Cap(), maxSpareWidth)
		}
	}
	if len(c.conds) != 1 {
		t.Errorf("%d Conds kept, want the one that watched %d counters", len(c.conds), maxSpareWidth)
	}
}
