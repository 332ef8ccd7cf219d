package remote_test

import (
	"context"
	"net"
	"testing"
	"time"

	"monotonic/counter"
	"monotonic/counter/countertest"
	"monotonic/counter/remote"
	"monotonic/counter/wait"
	"monotonic/internal/predicate"
	"monotonic/internal/server"
	"monotonic/internal/wire"
)

// startServerS is startServer returning the server too, for tests that
// assert on PredicateWaits.
func startServerS(t *testing.T) (*server.Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	return s, lis.Addr().String()
}

// waitPredWaits polls until s parks want predicate waits, and judges
// the reading that ended the poll: a second reading could miss an entry
// that was there, such as a dying connection's, torn down in between.
func waitPredWaits(t *testing.T, s *server.Server, want int) {
	t.Helper()
	n := s.PredicateWaits()
	for deadline := time.Now().Add(5 * time.Second); n != want && time.Now().Before(deadline); n = s.PredicateWaits() {
		time.Sleep(time.Millisecond)
	}
	if n != want {
		t.Fatalf("PredicateWaits = %d, want %d", n, want)
	}
}

// TestWirePredicates runs the exported wire v3 predicate battery: one
// parked entry per session quorum, zero waiter frames per non-flipping
// increment, and a v2 client passing the full battery against this
// server.
func TestWirePredicates(t *testing.T) {
	countertest.RunWirePredicates(t)
}

// TestPredicateKindsAgree: the client sends a Spec's kind in an
// OpWaitFor frame and counterd reads the frame's kind as the predicate
// engine's, so each wait kind must arrive as the same predicate.Kind.
func TestPredicateKindsAgree(t *testing.T) {
	for _, k := range []struct {
		spec wait.Kind
		pred predicate.Kind
	}{
		{wait.KindSum, predicate.KindSum},
		{wait.KindThreshold, predicate.KindThreshold},
	} {
		f := wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: k.spec, K: 1, Watch: []wire.Watch{{Name: "a", Level: 1}}}
		got, err := wire.Decode(wire.Append(nil, &f)[4:])
		if err != nil {
			t.Fatalf("%s: %v", k.spec, err)
		}
		if got.Pred != k.pred {
			t.Errorf("wait kind %s arrived as predicate kind %s", k.spec, got.Pred)
		}
	}
}

func TestServerFeatures(t *testing.T) {
	addr := startServer(t)

	v3 := dialClient(t, addr)
	v3.Counter(countertest.FreshName("feat")).Increment(1) // force a handshake
	if f := v3.ServerFeatures(); f&wire.FeatureWaitFor == 0 {
		t.Fatalf("v3 ServerFeatures = %#x, want FeatureWaitFor set", f)
	}

	v2, err := remote.Dial(addr, remote.WithProtocol(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v2.Close() })
	v2.Counter(countertest.FreshName("feat")).Increment(1)
	if f := v2.ServerFeatures(); f != 0 {
		t.Fatalf("v2 ServerFeatures = %#x, want 0", f)
	}
}

// TestSpecWaitRoutesServerSide pins the tentpole: a predicate over two
// counters of one client parks ONE server-side entry, non-flipping
// increments cost the waiting client zero frames in either direction,
// and the flip delivers exactly one wake.
func TestSpecWaitRoutesServerSide(t *testing.T) {
	s, addr := startServerS(t)
	waiter := dialClient(t, addr)
	inc := dialClient(t, addr)

	na, nb := countertest.FreshName("sr"), countertest.FreshName("sr")
	cond := wait.Sum(waiter.Counter(na), waiter.Counter(nb)).AtLeast(100)

	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	waitPredWaits(t, s, 1)
	if st := cond.Stats(); !st.External || st.Armed != 0 {
		t.Fatalf("stats = %+v, want External with zero local sentinels", st)
	}

	// Non-flipping increments from another client: the waiter's link
	// stays silent. (Frame counts are quiescent once IncAcks drain on
	// the incrementer side; the waiter sends and receives nothing.)
	sent0, recv0 := waiter.WireStats()
	for i := 0; i < 99; i++ {
		inc.Counter(na).Increment(1)
	}
	inc.Counter(na).Check(99) // fence: the server has applied all 99
	if sent, recv := waiter.WireStats(); sent != sent0 || recv != recv0 {
		t.Fatalf("waiter frames moved during non-flipping increments: sent %d→%d recv %d→%d",
			sent0, sent, recv0, recv)
	}

	// The flip: exactly one wake releases the waiter.
	inc.Counter(nb).Increment(1)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server-side predicate wait never released")
	}
	waitPredWaits(t, s, 0)
	if sent, recv := waiter.WireStats(); recv != recv0+1 {
		t.Fatalf("waiter received %d frames for the flip (sent %d→%d), want exactly 1 wake",
			recv-recv0, sent0, sent)
	}
}

// TestSpecWaitV2FallsBack dials WithProtocol(2): the same combinator
// must still work, evaluated client-side over per-counter waits.
func TestSpecWaitV2FallsBack(t *testing.T) {
	s, addr := startServerS(t)
	cl, err := remote.Dial(addr, remote.WithProtocol(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	other := dialClient(t, addr)

	na, nb := countertest.FreshName("v2"), countertest.FreshName("v2")
	cond := wait.KOfN([]counter.Interface{cl.Counter(na), cl.Counter(nb)}, 2, 3)

	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	time.Sleep(30 * time.Millisecond)
	if st := cond.Stats(); st.External {
		t.Fatalf("stats = %+v: v2 session must not route server-side", st)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits = %d, want 0 for a v2 session", n)
	}
	other.Counter(na).Increment(3)
	other.Counter(nb).Increment(3)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("v2 fallback predicate wait never released")
	}
}

// TestSpecWaitCancel abandons a parked spec wait via context: the
// server entry must drain and the counters stay resettable.
func TestSpecWaitCancel(t *testing.T) {
	s, addr := startServerS(t)
	cl := dialClient(t, addr)

	na, nb := countertest.FreshName("sc"), countertest.FreshName("sc")
	ca, cb := cl.Counter(na), cl.Counter(nb)
	cond := wait.Sum(ca, cb).AtLeast(1000)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(ctx) }()
	waitPredWaits(t, s, 1)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	waitPredWaits(t, s, 0)
	ca.Reset() // panics if the abandoned wait left anything parked server-side
	_ = cb
}

// TestSpecWaitSurvivesReconnect severs the link while a spec wait is
// parked: the reconnect fires the registration false, the predicate
// engine asks again over the new link, and a post-reconnect flip still
// releases the waiter.
func TestSpecWaitSurvivesReconnect(t *testing.T) {
	s, addr := startServerS(t)
	p := startProxy(t, addr)
	cl, err := remote.Dial(p.lis.Addr().String(), remote.WithBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	other := dialClient(t, addr)

	na, nb := countertest.FreshName("rr"), countertest.FreshName("rr")
	cond := wait.Sum(cl.Counter(na), cl.Counter(nb)).AtLeast(10)

	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	waitPredWaits(t, s, 1)

	p.kill() // sever; the dead conn's entry drains, the re-ask parks another
	waitPredWaits(t, s, 1)

	other.Counter(na).Increment(4)
	other.Counter(nb).Increment(6)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("spec wait never released after the reconnect")
	}
}

// TestSentinelWaitSurvivesReconnect severs the link under a predicate
// the client evaluates over per-counter remote sentinels (a v2 session,
// so no server-side registration): the reconnect kicks both sentinels,
// the predicate engine re-arms them over the new link, and a flip after
// the reconnect still releases the waiter.
func TestSentinelWaitSurvivesReconnect(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	reconnected := make(chan struct{}, 1)
	cl, err := remote.Dial(p.lis.Addr().String(), remote.WithProtocol(2),
		remote.WithBackoff(time.Millisecond, 10*time.Millisecond),
		remote.WithRetryNotify(func(failures int, _ error) {
			if failures == 0 {
				select {
				case reconnected <- struct{}{}:
				default:
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	other := dialClient(t, addr)

	na, nb := countertest.FreshName("sw"), countertest.FreshName("sw")
	cond := wait.Sum(cl.Counter(na), cl.Counter(nb)).AtLeast(10)

	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for cond.Stats().Armed != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); st.External || st.Armed != 2 {
		t.Fatalf("stats = %+v, want two client sentinels and no external registration", st)
	}
	cl.Counter(na).Stats() // fence: the server has parked both sentinels

	p.kill()
	select {
	case <-reconnected:
	case <-time.After(10 * time.Second):
		t.Fatal("the client never reconnected")
	}
	other.Counter(na).Increment(4)
	other.Counter(nb).Increment(6)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sentinel wait never released after the reconnect")
	}
}

// TestSpecWaitDegradesOnClose pins the fire(false) path: closing the
// client while a spec wait is parked degrades the Cond to per-counter
// evaluation (External drops) without deadlocking, and the waiter stays
// cancellable through its context.
func TestSpecWaitDegradesOnClose(t *testing.T) {
	addr := startServer(t)
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cond := wait.Sum(cl.Counter(countertest.FreshName("dg")), cl.Counter(countertest.FreshName("dg"))).AtLeast(10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !cond.Stats().External && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !cond.Stats().External {
		t.Fatal("spec wait never routed server-side")
	}
	cl.Close()
	for cond.Stats().External && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); st.External {
		t.Fatalf("stats = %+v: Close must degrade the external registration", st)
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait stranded after Close degraded the spec wait")
	}
}
