package remote

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"monotonic/counter"
	cwait "monotonic/counter/wait"
	"monotonic/internal/wire"
)

// scriptedLink is the far end of one client connection, served by the
// test: it reads the client's frames and writes the replies.
type scriptedLink struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func (l *scriptedLink) read() wire.Frame {
	l.t.Helper()
	l.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.Read(l.br)
	if err != nil {
		l.t.Fatalf("scripted counterd: %v", err)
	}
	return f
}

func (l *scriptedLink) expect(op wire.Op) wire.Frame {
	l.t.Helper()
	f := l.read()
	if f.Op != op {
		l.t.Fatalf("scripted counterd: got %s, want %s", f.Op, op)
	}
	return f
}

func (l *scriptedLink) send(frames ...wire.Frame) {
	l.t.Helper()
	var buf []byte
	for i := range frames {
		buf = wire.Append(buf, &frames[i])
	}
	if _, err := l.nc.Write(buf); err != nil {
		l.t.Fatalf("scripted counterd: %v", err)
	}
}

// welcome answers the client's Hello on the next link it dials.
func welcome(t *testing.T, links <-chan net.Conn) *scriptedLink {
	t.Helper()
	var l *scriptedLink
	select {
	case nc := <-links:
		l = &scriptedLink{t: t, nc: nc, br: bufio.NewReader(nc)}
	case <-time.After(5 * time.Second):
		t.Fatal("the client never dialed")
	}
	l.expect(wire.OpHello)
	l.send(wire.Frame{Op: wire.OpWelcome, Session: 1, Epoch: 1, Features: wire.FeatureWaitFor | wire.FeatureSentinel})
	return l
}

// TestReplayAfterFrameReuse: registration B refills the frame answered
// registration A left behind, and a reconnect must re-send exactly B's
// OpWaitFor — B's id, kind, k, target and watch list — while a late
// OpWake for A's id must not fire B. A frame kept for reuse while its
// entry is still parked would be refilled under it.
func TestReplayAfterFrameReuse(t *testing.T) {
	links := make(chan net.Conn, 2)
	reconnected := make(chan struct{}, 1)
	dialed := make(chan *Client, 1)
	go func() {
		cl, err := Dial("scripted",
			WithBackoff(time.Millisecond, 5*time.Millisecond),
			WithDialer(func(string) (net.Conn, error) {
				client, srv := net.Pipe()
				links <- srv
				return client, nil
			}),
			WithRetryNotify(func(failures int, _ error) {
				if failures == 0 {
					reconnected <- struct{}{}
				}
			}))
		if err != nil {
			t.Error(err)
		}
		dialed <- cl
	}()
	link := welcome(t, links)
	cl := <-dialed
	if cl == nil {
		t.FailNow()
	}
	defer cl.Close()
	cs := make([]counter.Interface, 3)
	for i := range cs {
		cs[i] = cl.Counter(fmt.Sprintf("reuse%d", i))
	}
	frameOf := func(id uint64) (f *wire.Frame, kept bool) {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		if w := cl.waits[id]; w != nil {
			f = w.frame
		}
		return f, slices.Contains(cl.frames, f)
	}

	firedA := make(chan bool, 2)
	if _, ok := cl.ArmSpec(cwait.Spec{Kind: cwait.KindThreshold, Counters: cs, Levels: []uint64{1, 2, 3}, K: 2}, func(sat bool) { firedA <- sat }); !ok {
		t.Fatal("ArmSpec A refused")
	}
	a := link.expect(wire.OpWaitFor)
	frameA, _ := frameOf(a.ID)
	link.send(wire.Frame{Op: wire.OpWake, ID: a.ID})
	if sat := <-firedA; !sat {
		t.Fatal("A's wake fired false")
	}

	firedB := make(chan bool, 2)
	if _, ok := cl.ArmSpec(cwait.Spec{Kind: cwait.KindSum, Counters: cs[1:], Target: 7}, func(sat bool) { firedB <- sat }); !ok {
		t.Fatal("ArmSpec B refused")
	}
	b := link.expect(wire.OpWaitFor)
	if frameB, kept := frameOf(b.ID); frameB != frameA || kept {
		t.Fatalf("B parked on frame %p (kept for reuse: %v), want A's answered frame %p, not kept", frameB, kept, frameA)
	}
	want := wire.Frame{Op: wire.OpWaitFor, ID: b.ID, Pred: wire.PredSum, Target: 7, Watch: []wire.Watch{{Name: "reuse1"}, {Name: "reuse2"}}}
	if b.ID == a.ID || b.Pred != want.Pred || b.K != 0 || b.Target != 7 || !slices.Equal(b.Watch, want.Watch) {
		t.Fatalf("B went out as %+v, want %+v", b, want)
	}

	link.nc.Close() // sever: the client redials and replays its wait table
	link = welcome(t, links)
	select {
	case <-reconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("the client never reported the reconnect")
	}
	stats := make(chan counter.Stats, 1)
	go func() { stats <- cl.Counter("fence").Stats() }() // queued behind the replay
	var replayed []wire.Frame
	fence := link.read()
	for ; fence.Op != wire.OpStats; fence = link.read() {
		replayed = append(replayed, fence)
	}
	if len(replayed) != 1 {
		t.Fatalf("the reconnect replayed %+v, want only B's OpWaitFor", replayed)
	}
	if r := replayed[0]; r.Op != want.Op || r.ID != want.ID || r.Pred != want.Pred || r.K != want.K || r.Target != want.Target || !slices.Equal(r.Watch, want.Watch) {
		t.Fatalf("the reconnect replayed %+v, want %+v", r, want)
	}

	// A's wake arrives late, then the fence's reply: by the time Stats
	// returns, the reader has dispatched both.
	link.send(wire.Frame{Op: wire.OpWake, ID: a.ID}, wire.Frame{Op: wire.OpStatsReply, ID: fence.ID})
	select {
	case <-stats:
	case <-time.After(5 * time.Second):
		t.Fatal("the fence's Stats never returned")
	}
	select {
	case sat := <-firedB:
		t.Fatalf("a late OpWake for A's id fired B (%v)", sat)
	case sat := <-firedA:
		t.Fatalf("a late OpWake for A's id fired A again (%v)", sat)
	default:
	}
	link.send(wire.Frame{Op: wire.OpWake, ID: b.ID})
	select {
	case sat := <-firedB:
		if !sat {
			t.Fatal("B's wake fired false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B's wake never fired it")
	}
}

// TestSpareRetentionBounded arms and answers more than maxSpareWaits
// registrations over wire.MaxWatch counters, then as many over one
// counter: the frames kept for reuse stay within maxSpareFrames and
// maxSpareWatches, so a storm of wide predicates cannot pin its peak.
func TestSpareRetentionBounded(t *testing.T) {
	cl := newClient("", nil)
	cl.nc = discardConn{}
	cl.features = wire.FeatureWaitFor
	wide := make([]counter.Interface, wire.MaxWatch)
	levels := make([]uint64, len(wide))
	for i := range wide {
		wide[i] = cl.Counter(fmt.Sprintf("wide%02d", i))
		levels[i] = 1
	}
	fire := func(bool) {}
	storm := func(spec cwait.Spec) {
		t.Helper()
		const n = maxSpareWaits + 8
		ids := make([]uint64, n)
		for i := range ids {
			if _, ok := cl.ArmSpec(spec, fire); !ok {
				t.Fatal("ArmSpec refused")
			}
			ids[i] = cl.serial
		}
		for _, id := range ids {
			cl.dispatch(&wire.Frame{Op: wire.OpWake, ID: id})
		}
		cl.wq = cl.wq[:0] // as the flusher would take it
		if len(cl.waits) != 0 {
			t.Fatalf("%d registrations still parked", len(cl.waits))
		}
		watches := 0
		for _, f := range cl.frames {
			watches += cap(f.Watch)
		}
		if len(cl.frames) > maxSpareFrames || watches > maxSpareWatches || watches != cl.watches {
			t.Fatalf("%d frames kept with %d watch entries (counted %d), want at most %d and %d", len(cl.frames), watches, cl.watches, maxSpareFrames, maxSpareWatches)
		}
		t.Logf("%d-wide storm: %d frames kept with %d watch entries", len(spec.Counters), len(cl.frames), watches)
	}
	storm(cwait.Spec{Kind: cwait.KindThreshold, Counters: wide, Levels: levels, K: 1})
	storm(cwait.Spec{Kind: cwait.KindSum, Counters: wide[:1], Target: 1})
}
