package remote_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monotonic/counter"
	"monotonic/counter/countertest"
	"monotonic/counter/remote"
	"monotonic/counter/wait"
	"monotonic/internal/core"
	"monotonic/internal/server"
	"monotonic/internal/wire"
)

func startServer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	return lis.Addr().String()
}

func dialClient(t *testing.T, addr string) *remote.Client {
	t.Helper()
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestConformance runs the exact black-box battery the in-process
// implementations pass — including cancellation semantics and the
// goroutine-leak check — against remote counters on a loopback counterd.
// Server and client run in this process, so the goroutine accounting
// covers both sides of the wire.
func TestConformance(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	countertest.Run(t, func(t *testing.T) counter.Interface {
		return cl.Counter(countertest.FreshName("conf"))
	})
}

// TestPredicateConformance runs the predicate-wait battery against
// remote counters on a loopback counterd: the wait combinators must
// behave identically whether the counters are in-process or hosted.
func TestPredicateConformance(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	countertest.RunPredicates(t, func(t *testing.T) counter.Interface {
		return cl.Counter(countertest.FreshName("pred"))
	})
}

// TestCountersAreShared pins the point of the whole subsystem: two
// clients, same name, one counter.
func TestCountersAreShared(t *testing.T) {
	addr := startServer(t)
	a := dialClient(t, addr)
	b := dialClient(t, addr)
	name := countertest.FreshName("shared")
	done := make(chan struct{})
	go func() {
		b.Counter(name).Check(3)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	a.Counter(name).Increment(3)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("b never observed a's increments")
	}
}

// proxy is a TCP relay with a kill switch, so tests can sever the
// client-server link mid-stream without either endpoint cooperating.
type proxy struct {
	lis    net.Listener
	target string

	mu    sync.Mutex
	conns []net.Conn
	held  []*atomic.Bool // per live relay: drop the server's bytes
	down  bool
}

func startProxy(t *testing.T, target string) *proxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{lis: lis, target: target}
	t.Cleanup(func() { lis.Close(); p.kill() })
	go p.run()
	return p
}

func (p *proxy) run() {
	for {
		in, err := p.lis.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		if p.down {
			p.mu.Unlock()
			in.Close()
			out.Close()
			continue
		}
		held := new(atomic.Bool)
		p.conns = append(p.conns, in, out)
		p.held = append(p.held, held)
		p.mu.Unlock()
		go func() { io.Copy(out, in); in.Close(); out.Close() }()
		go func() { relayBack(in, out, held); in.Close(); out.Close() }()
	}
}

// relayBack copies the server's bytes to the client, dropping them while
// held is set.
func relayBack(client, server net.Conn, held *atomic.Bool) {
	buf := make([]byte, 32<<10)
	for {
		n, err := server.Read(buf)
		if n > 0 && !held.Load() {
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// withhold makes every live relay drop what the server sends, as a link
// that dies with answers in flight loses them; the client's frames still
// reach the server, and relays accepted later forward both ways.
func (p *proxy) withhold() {
	p.mu.Lock()
	for _, h := range p.held {
		h.Store(true)
	}
	p.mu.Unlock()
}

// setDown controls whether new relays are accepted: after
// setDown(true), reconnect attempts land on a proxy that immediately
// closes them, so kill() becomes a permanent severance.
func (p *proxy) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// kill severs every live relay; new dials keep working (reconnects land
// on fresh pipes) unless setDown(true) was called first.
func (p *proxy) kill() {
	p.mu.Lock()
	conns := p.conns
	p.conns, p.held = nil, nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// TestReconnectExactlyOnce is the acceptance test for retry-safe resume:
// a writer pushes N increments while the link is killed repeatedly, a
// reader Checks every level; the final value must be exactly N — every
// increment applied, none applied twice.
func TestReconnectExactlyOnce(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	cl := dialClient(t, p.lis.Addr().String())
	name := countertest.FreshName("exact")
	c := cl.Counter(name)

	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: blocked Checks must survive the kills too
		defer wg.Done()
		for lv := uint64(50); lv <= n; lv += 50 {
			c.Check(lv)
		}
	}()
	for i := 1; i <= n; i++ {
		c.Increment(1)
		if i%100 == 0 {
			p.kill() // sever mid-pipeline; unacked tail must be re-sent
			time.Sleep(time.Millisecond)
		}
	}
	c.Check(n) // every increment eventually applies (none lost)
	wg.Wait()

	// None applied twice: a fresh client straight to the server (no
	// proxy, no shared session) must see the value still below n+1.
	direct := dialClient(t, addr)
	if direct.Counter(name).WaitTimeout(n+1, 300*time.Millisecond) {
		t.Fatalf("value exceeded %d: some increment was applied twice across reconnects", n)
	}
}

// bindsSlots reports whether p holds an OpIncrements frame that binds a
// slot.
func bindsSlots(p []byte) bool {
	br := bufio.NewReader(strings.NewReader(string(p)))
	for {
		f, err := wire.Read(br)
		if err != nil {
			return false
		}
		if f.Op == wire.OpIncrements && slices.ContainsFunc(f.Incs, func(e wire.Inc) bool { return e.Name != "" }) {
			return true
		}
	}
}

// severConn is a client link that severs itself at the first write that
// binds slots: from then on the client's reads fail and its writes are
// dropped, so it never sees that write's ack and reconnects, while the
// write itself is held until release closes, then handed to the server
// on the old connection, which sent closes.
type severConn struct {
	net.Conn
	cut, release, sent chan struct{}
}

func (c *severConn) severed() bool {
	select {
	case <-c.cut:
		return true
	default:
		return false
	}
}

func (c *severConn) Write(p []byte) (int, error) {
	if c.severed() {
		return len(p), nil
	}
	if !bindsSlots(p) {
		return c.Conn.Write(p)
	}
	close(c.cut)
	c.Conn.SetReadDeadline(time.Now()) // unblocks the client's reader
	held := slices.Clone(p)
	go func() {
		<-c.release
		c.Conn.Write(held)
		c.Conn.Close()
		close(c.sent)
	}()
	return len(p), nil
}

func (c *severConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.severed() {
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *severConn) Close() error {
	if c.severed() {
		return nil // the held write closes the connection
	}
	return c.Conn.Close()
}

// resendConn is the link after a severConn: its first write that binds
// slots, the client's re-sent tail, releases the severed link's held
// write and goes out only once that reached the server and the server
// has had a moment to apply it, so the re-sent entries are most likely
// duplicates.
type resendConn struct {
	net.Conn
	sever *severConn
	once  sync.Once
}

func (c *resendConn) Write(p []byte) (int, error) {
	if bindsSlots(p) {
		c.once.Do(func() {
			close(c.sever.release)
			<-c.sever.sent
			time.Sleep(20 * time.Millisecond)
		})
	}
	return c.Conn.Write(p)
}

// settled checks c's hosted value is exactly final, with a wait the
// server decides: a Check at final returns, and a zero-timeout wait one
// above it does not.
func settled(t *testing.T, c *remote.Counter, final uint64) {
	t.Helper()
	if !c.WaitTimeout(final, 10*time.Second) {
		t.Fatalf("%s: Check(%d) did not return: an increment was lost", c.Name(), final)
	}
	if c.WaitTimeout(final+1, 0) {
		t.Fatalf("%s: value passed %d: an increment was applied twice", c.Name(), final)
	}
}

// TestReconnectRebindsSlots severs the link just as the client writes
// an OpIncrements frame that binds slots, before its ack can arrive. The
// client reconnects and re-sends its unacknowledged tail on slots bound
// afresh, since the new connection has bound none, and goes on
// incrementing there. The severed frame reaches the server on the old
// connection only after the new Welcome, and most likely ahead of the
// re-send, so the re-sent entries are duplicates whose bindings must
// still take effect: a later entry referring to an unbound slot would
// close the new connection. Every increment must land exactly once, over
// exactly two links.
func TestReconnectRebindsSlots(t *testing.T) {
	addr := startServer(t)
	sever := &severConn{cut: make(chan struct{}), release: make(chan struct{}), sent: make(chan struct{})}
	var dials atomic.Int32
	cl, err := remote.Dial(addr, remote.WithDialer(func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		switch dials.Add(1) {
		case 1:
			sever.Conn = nc
			return sever, nil
		case 2:
			return &resendConn{Conn: nc, sever: sever}, nil
		}
		return nc, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if cl.ServerFeatures()&wire.FeatureBatch == 0 {
		t.Fatal("the server does not advertise FeatureBatch")
	}
	cs := make([]*remote.Counter, 40)
	for i := range cs {
		cs[i] = cl.Counter(countertest.FreshName("rebind"))
	}
	const rounds = 3
	for r := range rounds {
		for _, c := range cs {
			c.Increment(1)
		}
		if r == 0 {
			select {
			case <-sever.cut:
			case <-time.After(5 * time.Second):
				t.Fatal("no frame binding a slot was written")
			}
		}
	}
	for _, c := range cs {
		settled(t, c, rounds)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the client reconnected once, and the new link was never closed", n)
	}
}

// TestManyCountersRebindSlots increments more counters on one link than
// it has slots, in rounds, so the client rebinds slots round-robin
// throughout, a binding taking the slot of a counter the next round
// needs again; every final value must still be exact. The increments
// travel as OpIncrements frames, far fewer than the increments.
func TestManyCountersRebindSlots(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	cs := make([]*remote.Counter, wire.MaxSlots+wire.MaxSlots/4)
	for i := range cs {
		cs[i] = cl.Counter(fmt.Sprintf("%s-%d", countertest.FreshName("slots"), i))
	}
	sent0, _ := cl.WireStats()
	var total uint64
	for r := 0; r < 3; r++ {
		for i, c := range cs {
			if i%3 >= r { // counter i gets i%3+1 increments
				c.Increment(uint64(r + 1))
				total++
			}
		}
	}
	if sent, _ := cl.WireStats(); sent-sent0 > total/10 {
		t.Fatalf("%d increments sent %d frames, want them batched", total, sent-sent0)
	}
	for i, c := range cs {
		var final uint64
		for r := 0; r <= i%3; r++ {
			final += uint64(r + 1)
		}
		settled(t, c, final)
	}
}

// TestBlockedCheckSurvivesReconnect kills the link while a Check is the
// only outstanding operation; the re-registered wait must still resolve.
func TestBlockedCheckSurvivesReconnect(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	cl := dialClient(t, p.lis.Addr().String())
	c := cl.Counter(countertest.FreshName("surv"))

	done := make(chan struct{})
	go func() { c.Check(10); close(done) }()
	time.Sleep(30 * time.Millisecond) // wait reaches the server
	p.kill()
	time.Sleep(30 * time.Millisecond) // client notices, reconnects, re-registers

	other := dialClient(t, addr) // satisfy through the back door
	other.Counter("surv-none").Increment(0)
	c.Increment(10)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Check lost across reconnect")
	}
}

// TestCancelAcrossDeadLink cancels a wait while the link is down: the
// reconnect path must resolve it with the context error, not strand it.
func TestCancelAcrossDeadLink(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	cl := dialClient(t, p.lis.Addr().String())
	c := cl.Counter(countertest.FreshName("cdl"))

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- c.CheckContext(ctx, 99) }()
	time.Sleep(30 * time.Millisecond)
	p.kill()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("CheckContext across dead link = %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled CheckContext never resolved across the dead link")
	}
}

// TestSatisfiedBeatsCancelledAcrossReconnect is the regression for a
// cancel whose answer dies with the link: the server satisfies a parked
// wait, the wake is lost in flight, the waiter cancels, and the link
// goes down. The reconnect must let the server decide the race again —
// the level is satisfied, so CheckContext returns nil, not the context
// error it used to settle on locally.
func TestSatisfiedBeatsCancelledAcrossReconnect(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	cl, err := remote.Dial(p.lis.Addr().String(), remote.WithBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	name := countertest.FreshName("sbcr")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cl.Counter(name).CheckContext(ctx, 5) }()
	time.Sleep(30 * time.Millisecond) // the wait parks on the server
	p.withhold()
	o := dialClient(t, addr).Counter(name)
	o.Increment(5)
	o.Check(5)                        // the server has woken the parked wait
	time.Sleep(30 * time.Millisecond) // and the relay has dropped the wake
	cancel()
	time.Sleep(30 * time.Millisecond) // the OpCancel finds nothing left to cancel
	p.kill()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("CheckContext = %v for a level the server satisfied before the cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled CheckContext never resolved across the reconnect")
	}
}

// TestFanOutNoGoroutinePerWait registers thousands of waits through the
// async CheckChan API — client and server in one process — and asserts
// the total goroutine count stays flat: no goroutine per wait on either
// side of the wire. This is the in-test twin of experiment E22's bound.
func TestFanOutNoGoroutinePerWait(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	c := cl.Counter(countertest.FreshName("fan"))
	c.Increment(1)
	c.Check(1) // settle both sides' machinery into the baseline

	const waits = 2000
	baseline := runtime.NumGoroutine()
	chans := make([]<-chan error, waits)
	for i := range chans {
		chans[i] = c.CheckChan(uint64(i + 2))
	}
	// Fence: a round trip through the same pipeline proves the server has
	// registered everything sent before it.
	c.Increment(1)
	c.Check(2)
	if n := runtime.NumGoroutine(); n > baseline+4 {
		t.Fatalf("goroutines = %d with %d outstanding remote waits (baseline %d)", n, waits, baseline)
	}
	c.Increment(waits)
	for i, ch := range chans {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("wait %d resolved with %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("wait %d (level %d) never woke", i, i+2)
		}
	}
}

// TestStats pins the split schema: shared fields come from the hosted
// engine (all sessions aggregated), Remote* fields are client-local.
func TestStats(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	c := cl.Counter(countertest.FreshName("stats"))
	c.Increment(4)
	c.Check(4)
	done := make(chan struct{})
	go func() { c.Check(9); close(done) }()
	time.Sleep(30 * time.Millisecond)
	c.Increment(5)
	<-done

	s := c.Stats()
	if s.Increments != 2 {
		t.Errorf("Stats.Increments = %d, want 2 (server-side engine count)", s.Increments)
	}
	if s.RemoteRoundTrips == 0 {
		t.Error("Stats.RemoteRoundTrips = 0 after resolved waits and acks")
	}
	if s.RemoteWaitNanos == 0 {
		t.Error("Stats.RemoteWaitNanos = 0 after a genuinely blocked Check")
	}
	if s.Broadcasts > s.SatisfiedLevels {
		t.Errorf("invariant violated: Broadcasts %d > SatisfiedLevels %d", s.Broadcasts, s.SatisfiedLevels)
	}

	// counter.Publish works unchanged on a remote counter.
	counter.Publish(countertest.FreshName("expvar"), c)
}

// TestStatsCountsClientChecks: a remote counter's Stats count every
// session's wire Checks, as counterd's engine counts them — a parked
// one as a suspend, one answered at once as an immediate check — and
// add the checks the client's own watermark settles, which never reach
// the server.
func TestStatsCountsClientChecks(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	name := countertest.FreshName("checks")
	c := cl.Counter(name)
	s0 := c.Stats()
	ch := c.CheckChan(3) // parks: the watermark starts at zero
	if s := c.Stats(); s.Suspends != s0.Suspends+1 || s.ImmediateChecks != s0.ImmediateChecks {
		t.Fatalf("after a parked Check: Suspends %d, ImmediateChecks %d; want %d, %d",
			s.Suspends, s.ImmediateChecks, s0.Suspends+1, s0.ImmediateChecks)
	}
	b := dialClient(t, addr).Counter(name) // a second session on the same counter
	if s := b.Stats(); s.Suspends != s0.Suspends+1 || s.ImmediateChecks != s0.ImmediateChecks {
		t.Fatalf("second session, after the first parked a Check: Suspends %d, ImmediateChecks %d; want %d, %d",
			s.Suspends, s.ImmediateChecks, s0.Suspends+1, s0.ImmediateChecks)
	}
	c.Increment(3)
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	s1 := c.Stats()
	c.Check(2) // the wake raised the watermark to 3
	if s := c.Stats(); s.ImmediateChecks != s1.ImmediateChecks+1 || s.Suspends != s1.Suspends {
		t.Fatalf("after a Check the watermark covers: ImmediateChecks %d, Suspends %d; want %d, %d",
			s.ImmediateChecks, s.Suspends, s1.ImmediateChecks+1, s1.Suspends)
	}
	s2 := b.Stats()
	b.Check(3) // the second session's watermark is still zero: the server answers at once
	if s := b.Stats(); s.ImmediateChecks != s2.ImmediateChecks+1 || s.Suspends != s2.Suspends {
		t.Fatalf("second session, after a wire Check answered at once: ImmediateChecks %d, Suspends %d; want %d, %d",
			s.ImmediateChecks, s.Suspends, s2.ImmediateChecks+1, s2.Suspends)
	}
}

// TestSentinelCountsNoCheck: arming a remote sentinel is no Check, as
// in-process. It travels as an OpSentinel, which counterd counts
// neither way whether it parks or is answered at once; only a v2
// session, whose server takes no OpSentinel, parks an OpCheck, which
// counts as a suspend.
func TestSentinelCountsNoCheck(t *testing.T) {
	addr := startServer(t)
	name := countertest.FreshName("sentinels")
	c := dialClient(t, addr).Counter(name)
	s0 := c.Stats()
	fired := make(chan struct{}, 2)
	hook := func() { fired <- struct{}{} }
	if _, armed := core.Sentinel(c, 5, hook); !armed { // parks
		t.Fatal("Sentinel(5) on a fresh counter not armed")
	}
	b := dialClient(t, addr).Counter(name)
	b.Increment(6)
	b.Stats() // fences the increment: b's frames run in order
	// c's watermark is at most 5, so this one goes to the wire, where the
	// server answers it at once.
	if _, armed := core.Sentinel(c, 6, hook); !armed {
		t.Fatal("Sentinel(6) not armed although the watermark is below it")
	}
	for range 2 {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("a sentinel never fired")
		}
	}
	if s := c.Stats(); s.Suspends != s0.Suspends || s.ImmediateChecks != s0.ImmediateChecks {
		t.Fatalf("after two sentinels: Suspends %d, ImmediateChecks %d; want %d, %d unchanged",
			s.Suspends, s.ImmediateChecks, s0.Suspends, s0.ImmediateChecks)
	}

	v2, err := remote.Dial(addr, remote.WithProtocol(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v2.Close() })
	old := v2.Counter(name)
	if _, armed := core.Sentinel(old, 10, func() {}); !armed {
		t.Fatal("v2 Sentinel(10) not armed")
	}
	if s := old.Stats(); s.Suspends != s0.Suspends+1 {
		t.Fatalf("after a v2 session's sentinel: Suspends %d, want %d", s.Suspends, s0.Suspends+1)
	}
}

// TestProbeEvents pins SetProbe's client-local events: an Increment, a
// Check that parks and the wake that releases it deliver
// EventIncrement, EventSuspend and EventWake with their amounts and
// levels, a Sentinel's arming delivers nothing (as in-process, it is no
// suspend), and SetProbe(nil) stops them.
func TestProbeEvents(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	c := cl.Counter(countertest.FreshName("probe"))
	var mu sync.Mutex
	var got []counter.Event
	c.SetProbe(func(e counter.Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	events := func() []counter.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]counter.Event(nil), got...)
	}

	c.Increment(2)
	ch := c.CheckChan(5) // parks: the watermark starts at zero
	want := []counter.Event{{Kind: counter.EventIncrement, Level: 2}, {Kind: counter.EventSuspend, Level: 5}}
	if e := events(); !slices.Equal(e, want) {
		t.Fatalf("events after an Increment and a parked Check = %+v, want %+v", e, want)
	}
	c.Increment(3)
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	// The wake is emitted before the Check is answered; the increment's
	// event, after its frame is queued, may come either side of it.
	e := events()
	inc, wake := counter.Event{Kind: counter.EventIncrement, Level: 3}, counter.Event{Kind: counter.EventWake, Level: 5}
	if len(e) != 4 || !slices.Equal(e[:2], want) || !(e[2] == inc && e[3] == wake || e[2] == wake && e[3] == inc) {
		t.Fatalf("events after the wake = %+v, want %+v then %+v and %+v in either order", e, want, inc, wake)
	}

	cancel, armed := core.Sentinel(c, 10, func() { t.Error("the cancelled Sentinel fired") })
	if !armed {
		t.Fatal("Sentinel(10) above the watermark not armed")
	}
	if e := events(); len(e) != 4 {
		t.Fatalf("events after arming a Sentinel = %+v, want the 4 from before", e)
	}
	if !cancel() {
		t.Fatal("cancel of a pending Sentinel reported it already fired")
	}

	c.SetProbe(nil)
	c.Increment(1)
	if err := <-c.CheckChan(6); err != nil { // parks, then the server answers at once
		t.Fatal(err)
	}
	if e := events(); len(e) != 4 {
		t.Fatalf("events after SetProbe(nil) = %+v, want the 4 from before", e)
	}
}

// TestIncrementOverflowPoisonsClient pins the remote analogue of the
// in-process overflow panic: the rejection arrives asynchronously, so
// the *next* operation panics.
func TestIncrementOverflowPoisonsClient(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	c := cl.Counter(countertest.FreshName("ovf"))
	c.Increment(^uint64(0) - 1)
	c.Check(^uint64(0) - 1) // the poison frame, if any, is ordered before this wake
	c.Increment(5)          // overflows server-side
	deadline := time.Now().Add(5 * time.Second)
	for {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			c.Increment(1)
			return
		}()
		if panicked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never poisoned after server rejected an overflowing increment")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverflowRejectionNeverAnswersACall is the regression for a
// rejected increment's OpError being taken by a Stats call. The server
// reports the rejection on the increment's seq, so a client that numbers
// seqs and request ids apart can find a call under that number: Stats
// then returned an all-zero snapshot and the client was never poisoned.
// A scripted counterd reads the OpIncrement and the OpStats before it
// answers both, so the two replies always meet the client together.
func TestOverflowRejectionNeverAnswersACall(t *testing.T) {
	client, srv := net.Pipe()
	go func() {
		defer srv.Close()
		br := bufio.NewReader(srv)
		expect := func(op wire.Op) wire.Frame {
			f, err := wire.Read(br)
			if err == nil && f.Op != op {
				err = fmt.Errorf("got %s", f.Op)
			}
			if err != nil {
				t.Errorf("scripted counterd: want %s: %v", op, err)
			}
			return f
		}
		expect(wire.OpHello)
		srv.Write(wire.Append(nil, &wire.Frame{Op: wire.OpWelcome, Session: 1, Epoch: 1}))
		inc := expect(wire.OpIncrement)
		stats := expect(wire.OpStats)
		out := wire.Append(nil, &wire.Frame{Op: wire.OpError, ID: inc.Seq, Msg: "counter overflow"})
		out = wire.Append(out, &wire.Frame{Op: wire.OpStatsReply, ID: stats.ID, Stats: counter.Stats{Increments: 7}})
		srv.Write(out)
		for {
			if _, err := wire.Read(br); err != nil {
				return // the client closed
			}
		}
	}()
	c := dialScripted(t, client).Counter("ovf")
	c.Increment(5)
	if got := c.Stats().Increments; got != 7 {
		t.Fatalf("Stats().Increments = %d, want the scripted reply's 7 (the rejection answered the call)", got)
	}
	if err := c.TryIncrement(1); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("TryIncrement after a rejected increment = %v, want the latched overflow", err)
	}
}

// dialScripted dials a client whose one connection is client, the near
// end of a pipe that a scripted counterd serves.
func dialScripted(t *testing.T, client net.Conn) *remote.Client {
	t.Helper()
	var dialed atomic.Bool
	cl, err := remote.Dial("scripted", remote.WithDialer(func(string) (net.Conn, error) {
		if dialed.Swap(true) {
			return nil, errors.New("the scripted counterd takes one connection")
		}
		return client, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestMisfitReplyLeavesTheEntry: a reply whose op cannot answer its
// id's wait-table entry is dropped, and the entry waits for its real
// answer. A scripted counterd answers a Stats call with OpWake (the
// client's reader dereferenced the call's nil counter), a Sentinel
// with OpCancelled (sent on its nil channel, wedging the reader), and a
// blocking Check with OpStatsReply and OpError (written through its nil
// frame, or latched as a rejected increment) before the real answers.
func TestMisfitReplyLeavesTheEntry(t *testing.T) {
	client, srv := net.Pipe()
	go func() {
		defer srv.Close()
		br := bufio.NewReader(srv)
		var stats, sentinel, check wire.Frame
		for n := 0; n < 4; n++ {
			f, err := wire.Read(br)
			switch {
			case err != nil:
				t.Errorf("scripted counterd: %v", err)
				return
			case f.Op == wire.OpHello:
				srv.Write(wire.Append(nil, &wire.Frame{Op: wire.OpWelcome, Session: 1, Epoch: 1}))
			case f.Op == wire.OpStats:
				stats = f
			case f.Op == wire.OpCheck && f.Level == 5:
				sentinel = f
			case f.Op == wire.OpCheck && f.Level == 6:
				check = f
			default:
				t.Errorf("scripted counterd: unexpected %s frame", f.Op)
			}
		}
		var out []byte
		for _, f := range []wire.Frame{
			{Op: wire.OpWake, ID: stats.ID, Level: 100},
			{Op: wire.OpCancelled, ID: sentinel.ID},
			{Op: wire.OpStatsReply, ID: check.ID},
			{Op: wire.OpError, ID: check.ID, Msg: "not a call"},
			{Op: wire.OpStatsReply, ID: stats.ID, Stats: counter.Stats{Increments: 7}},
			{Op: wire.OpWake, ID: check.ID, Level: 6},
			{Op: wire.OpWake, ID: sentinel.ID, Level: 5},
		} {
			out = wire.Append(out, &f)
		}
		srv.Write(out)
		for {
			if _, err := wire.Read(br); err != nil {
				return // the client closed
			}
		}
	}()
	c := dialScripted(t, client).Counter("misfit")
	fired := make(chan struct{})
	if _, armed := core.Sentinel(c, 5, func() { close(fired) }); !armed {
		t.Fatal("Sentinel(5) on a fresh counter not armed")
	}
	checked := make(chan error, 1)
	go func() { checked <- c.CheckContext(context.Background(), 6) }()
	stats := make(chan counter.Stats, 1)
	go func() { stats <- c.Stats() }()

	timeout := time.After(5 * time.Second)
	select {
	case s := <-stats:
		if s.Increments != 7 {
			t.Fatalf("Stats().Increments = %d, want the real reply's 7", s.Increments)
		}
	case <-timeout:
		t.Fatal("Stats never answered")
	}
	select {
	case err := <-checked:
		if err != nil {
			t.Fatalf("CheckContext(6) = %v, want nil from its wake", err)
		}
	case <-timeout:
		t.Fatal("CheckContext(6) never answered")
	}
	select {
	case <-fired:
	case <-timeout:
		t.Fatal("the Sentinel never fired")
	}
	if w := c.Watermark(); w != 6 {
		t.Fatalf("Watermark() = %d, want 6: the wake sent to the Stats call counted", w)
	}
	if err := c.TryIncrement(1); err != nil {
		t.Fatalf("TryIncrement = %v, want nil: the error sent to the Check poisoned the client", err)
	}
}

// TestCloseResolvesWaiters pins ErrClosed delivery: Close must unblock
// outstanding CheckContext calls with ErrClosed rather than strand them.
func TestCloseResolvesWaiters(t *testing.T) {
	addr := startServer(t)
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.Counter("close-wait")
	errc := make(chan error, 1)
	go func() { errc <- c.CheckContext(context.Background(), 100) }()
	time.Sleep(30 * time.Millisecond)
	cl.Close()
	select {
	case err := <-errc:
		if err != remote.ErrClosed {
			t.Fatalf("CheckContext after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CheckContext never unblocked on Close")
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestWaitTimeoutPanicsOnClose: a WaitTimeout parked on a level the
// value never reaches panics with ErrClosed when the client's Close
// interrupts it; it does not return.
func TestWaitTimeoutPanicsOnClose(t *testing.T) {
	addr := startServer(t)
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.Counter(countertest.FreshName("close-timeout"))
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.WaitTimeout(1, time.Minute)
	}()
	// Stats answers behind the parked OpCheck.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Suspends == 0; {
		if time.Now().After(deadline) {
			t.Fatal("WaitTimeout(1) never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	select {
	case r := <-recovered:
		if err, ok := r.(error); !ok || !errors.Is(err, remote.ErrClosed) {
			t.Fatalf("WaitTimeout under Close panicked with %v, want %v", r, remote.ErrClosed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitTimeout never returned after Close")
	}
}

// TestWaitTimeoutSatisfiedBeatsDeadline pins the cancellation rule over
// the wire: a level covered by the client's satisfied watermark beats an
// expired (zero or negative) deadline with NO round trip — proven by
// severing the link first. This is the remote twin of the in-process
// "WaitTimeout(level, 0) reports true on a satisfied level" contract.
func TestWaitTimeoutSatisfiedBeatsDeadline(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	cl := dialClient(t, p.lis.Addr().String())
	c := cl.Counter(countertest.FreshName("wtz"))
	c.Increment(7)
	c.Check(7) // a real round trip raises the watermark to 7

	// Sever the link permanently: any path needing wire traffic hangs.
	p.setDown(true)
	p.kill()

	for _, d := range []time.Duration{0, -time.Second, time.Nanosecond} {
		done := make(chan bool, 1)
		go func() { done <- c.WaitTimeout(7, d) }()
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("WaitTimeout(7, %v) = false with watermark 7", d)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("WaitTimeout(7, %v) went to a dead link despite a covering watermark", d)
		}
	}
	done := make(chan bool, 1)
	go func() { done <- c.WaitTimeout(3, 0) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitTimeout(3, 0) = false with watermark 7")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("below-watermark WaitTimeout went to a dead link")
	}
}

// TestWaitTimeoutZeroResolvesOnServer pins the harder half of the same
// rule: a level satisfied on the SERVER but not yet in the client's
// watermark must still beat a zero deadline — the client registers the
// wait and races a cancel, and the server resolves in favor of the wake.
func TestWaitTimeoutZeroResolvesOnServer(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	c := cl.Counter(countertest.FreshName("wtsrv"))
	if c.WaitTimeout(5, 0) {
		t.Fatal("WaitTimeout(5, 0) = true on a zero counter")
	}
	c.Increment(5) // pipelined: applied before the wait frame below
	if !c.WaitTimeout(5, 0) {
		t.Fatal("WaitTimeout(5, 0) = false for a level satisfied on the server")
	}
	if c.WaitTimeout(6, -time.Second) {
		t.Fatal("WaitTimeout(6, -1s) = true with the value at 5")
	}
}

// TestRemoteSentinel exercises the sentinel surface on a remote counter:
// arm, fire on a cross-client increment, cancel cleanly.
func TestRemoteSentinel(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	other := dialClient(t, addr)
	name := countertest.FreshName("sent")
	c := cl.Counter(name)

	fired := make(chan struct{})
	cancel, armed := core.Sentinel(c, 3, func() { close(fired) })
	if !armed {
		t.Fatal("Sentinel(3) on a zero counter reported not-armed")
	}
	other.Counter(name).Increment(3) // a different client satisfies it
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("sentinel never fired on a cross-client increment")
	}
	if cancel() {
		t.Fatal("cancel after fire reported true")
	}
	if c.Watermark() < 3 {
		t.Fatalf("watermark = %d after the sentinel fired, want >= 3", c.Watermark())
	}
	if _, armed := core.Sentinel(c, 2, nil); armed {
		t.Fatal("Sentinel(2) armed with watermark >= 3")
	}

	cancel2, armed2 := core.Sentinel(c, 100, func() { t.Error("cancelled sentinel fired") })
	if !armed2 {
		t.Fatal("second sentinel not armed")
	}
	if !cancel2() {
		t.Fatal("cancel of an armed sentinel reported false")
	}
	time.Sleep(20 * time.Millisecond) // any stray fire would t.Error above
}

// TestSentinelsParkNoGoroutine arms a thousand sentinels on a remote
// counter — client and server in one process — and asserts the
// goroutine count stays flat: an armed sentinel is one wait-table entry
// on each side of the wire, never a goroutine. One increment fires them
// all.
func TestSentinelsParkNoGoroutine(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	c := cl.Counter(countertest.FreshName("sentfan"))
	c.Increment(1)
	c.Check(1) // settle both sides' machinery into the baseline

	const sentinels = 1000
	baseline := runtime.NumGoroutine()
	var fired atomic.Int64
	all := make(chan struct{})
	for i := 0; i < sentinels; i++ {
		if _, armed := core.Sentinel(c, uint64(i+3), func() {
			if fired.Add(1) == sentinels {
				close(all)
			}
		}); !armed {
			t.Fatalf("Sentinel(%d) not armed", i+3)
		}
	}
	c.Increment(1)
	c.Check(2) // fence: the server has parked every sentinel sent before it
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines = %d with %d armed sentinels (baseline %d)", n, sentinels, baseline)
	}
	c.Increment(sentinels)
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d sentinels fired", fired.Load(), sentinels)
	}
}

// TestCloseKicksSentinelsOnce pins Close's sweep of armed sentinels:
// every live hook fires exactly once, as a re-evaluation kick, and a
// cancelled one never fires. A sentinel armed after Close is armed but
// never fires.
func TestCloseKicksSentinelsOnce(t *testing.T) {
	addr := startServer(t)
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.Counter(countertest.FreshName("kick"))
	const n = 64
	var fires [n]atomic.Int32
	cancels := make([]func() bool, n)
	for i := range cancels {
		var armed bool
		cancels[i], armed = core.Sentinel(c, uint64(100+i), func() { fires[i].Add(1) })
		if !armed {
			t.Fatalf("Sentinel(%d) not armed", 100+i)
		}
	}
	for i := 0; i < n; i += 2 {
		if !cancels[i]() {
			t.Fatalf("cancel of armed sentinel %d reported false", i)
		}
	}
	cl.Close()
	cl.Close()                        // a second Close finds nothing left to fire
	time.Sleep(20 * time.Millisecond) // any late or second fire lands
	for i := range fires {
		want := int32(i % 2) // odd: live at Close; even: cancelled
		if got := fires[i].Load(); got != want {
			t.Fatalf("sentinel %d fired %d times, want %d", i, got, want)
		}
		if cancels[i]() {
			t.Fatalf("cancel of sentinel %d after Close reported true", i)
		}
	}

	cancel, armed := core.Sentinel(c, 1000, func() { t.Error("sentinel on a closed client fired") })
	if !armed {
		t.Fatal("Sentinel on a closed client reported not-armed")
	}
	if !cancel() {
		t.Fatal("cancel of a sentinel on a closed client reported false")
	}
}

// TestPoisonedClientSentinelNeverFires is the regression for predicate
// waits over a poisoned client. ArmSpec refuses once an overflowing
// increment has poisoned the client, so WaitFor falls back to
// sentinels, and a sentinel on a poisoned client must arm and never
// fire — it used to panic on a goroutine the caller does not own.
func TestPoisonedClientSentinelNeverFires(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	o := cl.Counter(countertest.FreshName("poison"))
	o.Increment(^uint64(0) - 1)
	o.Check(^uint64(0) - 1)
	o.Increment(5) // overflows server-side
	for deadline := time.Now().Add(5 * time.Second); o.TryIncrement(0) == nil; {
		if time.Now().After(deadline) {
			t.Fatal("client never poisoned after an overflowing increment")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	c := cl.Counter(countertest.FreshName("poison"))
	if err := counter.WaitFor(ctx, wait.Sum(c).AtLeast(10)); err != context.DeadlineExceeded {
		t.Fatalf("WaitFor over a poisoned client = %v, want DeadlineExceeded", err)
	}
}

// TestRemotePredicateWait drives counter/wait's predicate machinery over
// remote counters: a sum across two hosted counters, incremented from a
// second client, releases a WaitFor on the first.
func TestRemotePredicateWait(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	other := dialClient(t, addr)
	na, nb := countertest.FreshName("pa"), countertest.FreshName("pb")
	cond := wait.Sum(cl.Counter(na), cl.Counter(nb)).AtLeast(10)

	errc := make(chan error, 1)
	go func() { errc <- counter.WaitFor(context.Background(), cond) }()
	select {
	case err := <-errc:
		t.Fatalf("WaitFor returned early with %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	other.Counter(na).Increment(4)
	other.Counter(nb).Increment(6)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("WaitFor = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("predicate wait over remote counters never released")
	}
}

// TestCloseDuringBackoffReturnsPromptly is the regression for the
// unconditional backoff sleep: with a 30-second backoff window and the
// server permanently gone, Close issued mid-backoff must return in
// milliseconds (the reader's sleep selects against the close channel),
// not after the window expires.
func TestCloseDuringBackoffReturnsPromptly(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	go s.Serve(lis)
	failed := make(chan struct{}, 1)
	cl, err := remote.Dial(lis.Addr().String(),
		remote.WithBackoff(30*time.Second, 30*time.Second),
		remote.WithRetryNotify(func(n int, err error) {
			if n > 0 {
				select {
				case failed <- struct{}{}:
				default:
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // server gone for good: the client reconnects forever
	select {
	case <-failed: // at least one attempt failed; the client is in (or entering) a 30s sleep
	case <-time.After(10 * time.Second):
		t.Fatal("client never attempted to reconnect")
	}
	start := time.Now()
	if err := cl.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("Close during a 30s backoff window took %v, want <10ms", d)
	}
}

// TestRetryNotifyCountsAndResets pins the WithRetryNotify contract: a
// dead link produces calls with consecutive failure counts 1, 2, …, and
// a successful reconnect produces (0, nil).
func TestRetryNotifyCountsAndResets(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	type event struct {
		n   int
		err error
	}
	events := make(chan event, 128)
	cl, err := remote.Dial(p.lis.Addr().String(),
		remote.WithBackoff(time.Millisecond, 10*time.Millisecond),
		remote.WithRetryNotify(func(n int, err error) {
			select {
			case events <- event{n, err}:
			default:
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	p.setDown(true)
	p.kill()
	want := 1
	deadline := time.After(10 * time.Second)
	for want <= 3 {
		select {
		case ev := <-events:
			if ev.err == nil {
				t.Fatalf("reconnect reported success with the proxy down (n=%d)", ev.n)
			}
			if ev.n != want {
				t.Fatalf("failure count = %d, want %d (consecutive failures must count up)", ev.n, want)
			}
			want++
		case <-deadline:
			t.Fatalf("saw %d failure notifications, want 3", want-1)
		}
	}
	p.setDown(false)
	for {
		select {
		case ev := <-events:
			if ev.err == nil {
				if ev.n != 0 {
					t.Fatalf("success notification carried failures=%d, want 0", ev.n)
				}
				return
			}
		case <-deadline:
			t.Fatal("reconnect never succeeded after the proxy came back")
		}
	}
}

// TestServerRestartDetected pins the epoch handshake end to end: a
// client that reconnects to a *restarted* server (same address, fresh
// instance) must observe the epoch change via WithRestartNotify, keep
// working against the new instance, and report the new epoch.
func TestServerRestartDetected(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	s1 := server.New()
	go s1.Serve(lis)

	restarts := make(chan [2]uint64, 1)
	cl, err := remote.Dial(addr,
		remote.WithBackoff(time.Millisecond, 20*time.Millisecond),
		remote.WithRestartNotify(func(oldE, newE uint64) {
			select {
			case restarts <- [2]uint64{oldE, newE}:
			default:
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if got := cl.Epoch(); got != s1.Epoch() {
		t.Fatalf("Epoch after dial = %d, want the server's %d", got, s1.Epoch())
	}
	c := cl.Counter(countertest.FreshName("restart"))
	c.Increment(3)
	c.Check(3)

	s1.Close()
	s2 := server.New()
	go s2.Serve(rebind(t, addr))
	t.Cleanup(func() { s2.Close() })

	select {
	case ep := <-restarts:
		if ep[0] != s1.Epoch() || ep[1] != s2.Epoch() {
			t.Fatalf("restart notify epochs = %v, want [%d %d]", ep, s1.Epoch(), s2.Epoch())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reconnect to a restarted server never fired the restart notification")
	}
	if got := cl.Epoch(); got != s2.Epoch() {
		t.Fatalf("Epoch after restart = %d, want the new instance's %d", got, s2.Epoch())
	}
	// The session works against the fresh instance.
	c2 := cl.Counter(countertest.FreshName("restart2"))
	c2.Increment(1)
	c2.Check(1)
}

// rebind listens on addr again once a closed server has released it, as
// a restarted counterd would.
func rebind(t *testing.T, addr string) net.Listener {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		lis, err := net.Listen("tcp", addr)
		if err == nil {
			return lis
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartNeverSharesASession is the regression for session ids
// colliding across a counterd restart. Client C increments 1 on the
// first instance; a second instance binds the same address; a fresh
// client B increments ten times there before C's redial, which a gated
// dialer holds back, reconnects; C then increments 3. Had C resumed into
// the session the new instance issued B under the same id, B's seqs
// 1..10 would swallow C's next seq as a duplicate and the value would
// stay at 10. It must read exactly 13.
func TestRestartNeverSharesASession(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	s1 := server.New()
	go s1.Serve(lis)

	var dials atomic.Int32
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	cl, err := remote.Dial(addr,
		remote.WithBackoff(time.Millisecond, 20*time.Millisecond),
		remote.WithDialer(func(addr string) (net.Conn, error) {
			if dials.Add(1) > 1 {
				<-gate // every redial waits until B has connected and incremented
			}
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(open) // runs first, so a failed test leaves no redial parked
	name := countertest.FreshName("restart-session")
	c := cl.Counter(name)
	c.Increment(1)
	c.Check(1)
	c.Stats() // answered behind the IncAck: C has no unacked increment to re-send

	s1.Close()
	s2 := server.New()
	go s2.Serve(rebind(t, addr))
	t.Cleanup(func() { s2.Close() })
	b := dialClient(t, addr).Counter(name)
	for i := 0; i < 10; i++ {
		b.Increment(1)
	}
	b.Check(10)

	open()
	c.Increment(3)
	if !b.WaitTimeout(13, 10*time.Second) {
		t.Fatal("value never reached 13: C's increment after its reconnect was dropped")
	}
	if b.WaitTimeout(14, 200*time.Millisecond) {
		t.Fatal("value passed 13: an increment applied twice")
	}
}

// TestCallsReplayAcrossReconnect is the regression for request/reply
// calls issued while the link is down: Reset and Stats must be re-sent
// when the client reconnects and answered by the server, not left
// waiting for a reply to a frame that was never delivered (Reset has no
// timeout and would block forever; Stats would fall back to its cached
// snapshot after two seconds).
func TestCallsReplayAcrossReconnect(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	failed := make(chan struct{}, 1)
	cl, err := remote.Dial(p.lis.Addr().String(),
		remote.WithBackoff(time.Millisecond, 10*time.Millisecond),
		remote.WithRetryNotify(func(n int, err error) {
			if n > 0 {
				select {
				case failed <- struct{}{}:
				default:
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rc := cl.Counter(countertest.FreshName("replay-reset"))
	sc := cl.Counter(countertest.FreshName("replay-stats"))
	rc.Increment(2)
	sc.Increment(3)
	sc.Increment(4)
	rc.Check(2)
	sc.Check(7)

	p.setDown(true)
	p.kill()
	select {
	case <-failed: // the link is down and the client knows it
	case <-time.After(10 * time.Second):
		t.Fatal("client never noticed the dead link")
	}
	reset := make(chan any, 1)
	go func() {
		defer func() { reset <- recover() }()
		rc.Reset()
	}()
	stats := make(chan counter.Stats, 1)
	go func() { stats <- sc.Stats() }()
	time.Sleep(50 * time.Millisecond) // both calls are waiting on the dead link
	p.setDown(false)

	select {
	case v := <-reset:
		if v != nil {
			t.Fatalf("Reset panicked: %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reset issued during the outage never returned")
	}
	direct := dialClient(t, addr)
	want := direct.Counter(sc.Name()).Stats().Increments
	select {
	case st := <-stats:
		if want != 2 || st.Increments != want {
			t.Fatalf("Stats().Increments = %d across the outage, server says %d (want 2)", st.Increments, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats issued during the outage never returned")
	}
	if direct.Counter(rc.Name()).WaitTimeout(1, 0) {
		t.Fatal("Reset returned but the hosted value is not zero")
	}
}

// TestLongNameServerErrorsDecode is the regression for server errors on
// counters with long names: the error quotes the name, and a message
// over wire.MaxName bytes used to fail the client's decoder, so a
// refused Reset never returned and an overflow was never latched. Both
// must arrive with their reason intact.
func TestLongNameServerErrorsDecode(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	long := func(prefix string) string {
		name := countertest.FreshName(prefix)
		return name + strings.Repeat("x", 250-len(name))
	}
	c := cl.Counter(long("busy"))
	parked := c.CheckChan(1) // queued ahead of the Reset on the same link
	reset := make(chan any, 1)
	go func() {
		defer func() { reset <- recover() }()
		c.Reset()
	}()
	select {
	case v := <-reset:
		if msg := fmt.Sprint(v); v == nil || !strings.Contains(msg, "suspended") {
			t.Fatalf("refused Reset panicked with %q, want the reason (\"suspended\")", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reset refused by the server never returned")
	}
	c.Increment(1)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}

	o := cl.Counter(long("ovf"))
	o.Increment(^uint64(0) - 1)
	o.Check(^uint64(0) - 1)
	o.Increment(5) // overflows server-side
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := func() (v any) {
			defer func() { v = recover() }()
			o.Increment(1)
			return nil
		}()
		if v != nil {
			if msg := fmt.Sprint(v); !strings.Contains(msg, "overflow") {
				t.Fatalf("poisoned client panicked with %q, want the overflow reason", msg)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never latched the overflow rejected on a long name")
		}
		time.Sleep(time.Millisecond)
	}
}
