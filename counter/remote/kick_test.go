package remote

import (
	"bufio"
	"net"
	"testing"
	"time"

	"monotonic/counter"
	cwait "monotonic/counter/wait"
	"monotonic/internal/core"
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
	l := accept(t, links)
	l.send(welcomeFrame)
	return l
}

// accept takes the next link the client dials, up to its Hello.
func accept(t *testing.T, links <-chan net.Conn) *scriptedLink {
	t.Helper()
	var l *scriptedLink
	select {
	case nc := <-links:
		l = &scriptedLink{t: t, nc: nc, br: bufio.NewReader(nc)}
	case <-time.After(5 * time.Second):
		t.Fatal("the client never dialed")
	}
	l.expect(wire.OpHello)
	return l
}

var welcomeFrame = wire.Frame{Op: wire.OpWelcome, Session: 1, Epoch: 1, Features: wire.FeatureWaitFor | wire.FeatureSentinel}

// dialScripted dials a client whose links the test serves: it returns
// the client, its first link, welcomed, and the channel every later
// link it dials arrives on.
func dialScripted(t *testing.T, opts ...Option) (*Client, *scriptedLink, <-chan net.Conn) {
	t.Helper()
	links := make(chan net.Conn, 2)
	dialed := make(chan *Client, 1)
	opts = append([]Option{
		WithBackoff(time.Millisecond, 5*time.Millisecond),
		WithDialer(func(string) (net.Conn, error) {
			client, srv := net.Pipe()
			links <- srv
			return client, nil
		}),
	}, opts...)
	go func() {
		cl, err := Dial("scripted", opts...)
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
	t.Cleanup(func() { cl.Close() })
	return cl, link, links
}

// fence sends frames down the link, then answers a Stats call behind
// them: when fence returns, the reader has dispatched every frame. It
// first reads each frame the client sent before the call, expecting
// the ops in want, in order.
func fence(t *testing.T, cl *Client, link *scriptedLink, want []wire.Op, frames ...wire.Frame) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		cl.Counter("fence").Stats()
		close(done)
	}()
	for _, op := range want {
		link.expect(op)
	}
	call := link.expect(wire.OpStats)
	link.send(append(frames, wire.Frame{Op: wire.OpStatsReply, ID: call.ID})...)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the fence's Stats never returned")
	}
}

// TestReconnectKicksCallbacks: a severed link takes every Sentinel and
// ArmSpec entry with it. The reconnect must re-send the blocking Check
// (the one entry a goroutine waits on) and no OpSentinel or OpWaitFor,
// run the Sentinel's hook once and the registration's fire once with
// false, so their owners arm again; and a late OpWake for either old id
// must fire nothing.
func TestReconnectKicksCallbacks(t *testing.T) {
	reconnected := make(chan struct{}, 1)
	cl, link, links := dialScripted(t, WithRetryNotify(func(failures int, _ error) {
		if failures == 0 {
			reconnected <- struct{}{}
		}
	}))
	cs := []counter.Interface{cl.Counter("kick0"), cl.Counter("kick1")}

	hooks := make(chan struct{}, 2)
	if _, armed := core.Sentinel(cl.Counter("kick0"), 5, func() { hooks <- struct{}{} }); !armed {
		t.Fatal("Sentinel(5) on a fresh counter not armed")
	}
	sentinel := link.expect(wire.OpSentinel)
	fires := make(chan bool, 2)
	if _, ok := cl.ArmSpec(cwait.Spec{Kind: cwait.KindSum, Counters: cs, Target: 7}, func(sat bool) { fires <- sat }); !ok {
		t.Fatal("ArmSpec refused")
	}
	spec := link.expect(wire.OpWaitFor)
	checked := cl.Counter("kick1").CheckChan(3)
	check := link.expect(wire.OpCheck)

	link.nc.Close() // sever: the client redials
	link = welcome(t, links)
	select {
	case <-reconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("the client never reported the reconnect")
	}
	// The kicks run on the reader goroutine before it reports the
	// reconnect.
	select {
	case <-hooks:
	default:
		t.Fatal("the reconnect never kicked the Sentinel")
	}
	select {
	case sat := <-fires:
		if sat {
			t.Fatal("the reconnect fired the ArmSpec registration true")
		}
	default:
		t.Fatal("the reconnect never fired the ArmSpec registration")
	}

	stats := make(chan counter.Stats, 1)
	go func() { stats <- cl.Counter("fence").Stats() }() // queued behind the re-sent frames
	var resent []wire.Frame
	fence := link.read()
	for ; fence.Op != wire.OpStats; fence = link.read() {
		resent = append(resent, fence)
	}
	if len(resent) != 1 || resent[0].Op != wire.OpCheck || resent[0].ID != check.ID || resent[0].Name != "kick1" || resent[0].Level != 3 {
		t.Fatalf("the reconnect re-sent %+v, want only the blocking Check %+v", resent, check)
	}

	// Both old ids are answered late, then the fence's call: by the time
	// Stats returns, the reader has dispatched all three.
	link.send(wire.Frame{Op: wire.OpWake, ID: sentinel.ID, Level: 5}, wire.Frame{Op: wire.OpWake, ID: spec.ID},
		wire.Frame{Op: wire.OpStatsReply, ID: fence.ID})
	select {
	case <-stats:
	case <-time.After(5 * time.Second):
		t.Fatal("the fence's Stats never returned")
	}
	select {
	case <-hooks:
		t.Fatal("a late OpWake for the Sentinel's old id ran its hook again")
	case sat := <-fires:
		t.Fatalf("a late OpWake for the registration's old id fired it again (%v)", sat)
	default:
	}
	if w := cl.Counter("kick0").Watermark(); w != 0 {
		t.Fatalf("watermark %d after a late OpWake for a dropped Sentinel, want 0", w)
	}

	link.send(wire.Frame{Op: wire.OpWake, ID: check.ID, Level: 3})
	select {
	case err := <-checked:
		if err != nil {
			t.Fatalf("the re-sent Check resolved with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the re-sent Check's wake never resolved it")
	}
}
