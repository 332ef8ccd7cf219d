package remote_test

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"monotonic/counter"
	"monotonic/counter/countertest"
	"monotonic/counter/remote"
)

// awaitSuspends polls c's Stats until Suspends reaches want: each Stats
// round trip rides behind the frames c's client sent before it.
func awaitSuspends(t *testing.T, c *remote.Counter, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		s := c.Stats().Suspends
		if s == want {
			return
		}
		if s > want || time.Now().After(deadline) {
			t.Fatalf("Suspends = %d, want %d", s, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// recv waits for one value from ch.
func recv(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never resolved", what)
		return nil
	}
}

// TestJoinedWaitsShareOneCheck: a client's blocking waits on one level
// share one wire wait. 64 CheckChan calls send one OpCheck, counterd
// parks one wait for them (another session reads one suspend), and one
// OpWake resolves every channel.
func TestJoinedWaitsShareOneCheck(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	name := countertest.FreshName("join")
	c := cl.Counter(name)
	b := dialClient(t, addr).Counter(name)
	s0 := b.Stats()

	const calls = 64
	sent0, _ := cl.WireStats()
	chans := make([]<-chan error, calls)
	for i := range chans {
		chans[i] = c.CheckChan(3)
	}
	if sent, _ := cl.WireStats(); sent != sent0+1 {
		t.Fatalf("%d CheckChan(3) calls sent %d frames, want 1 OpCheck", calls, sent-sent0)
	}
	c.Stats() // a fence: the server has handled the OpCheck
	if s := b.Stats(); s.Suspends != s0.Suspends+1 {
		t.Fatalf("another session reads Suspends %d, want %d: counterd parked one wait for the level",
			s.Suspends, s0.Suspends+1)
	}
	_, recv0 := cl.WireStats()
	b.Increment(3)
	for i, ch := range chans {
		if err := recv(t, ch, fmt.Sprintf("joined wait %d", i)); err != nil {
			t.Fatalf("joined wait %d resolved with %v", i, err)
		}
	}
	if _, got := cl.WireStats(); got != recv0+1 {
		t.Fatalf("%d joined waits received %d frames, want 1 OpWake", calls, got-recv0)
	}
}

// TestJoinedCancelLeavesCoWaitersParked: a joined wait that cancels
// leaves the others on its level parked, whichever of them parked the
// level, and asks the server again (one more suspend there). The last
// one out cancels the server's wait for the level, so once the other
// level is released nothing is left suspended there and Reset succeeds.
func TestJoinedCancelLeavesCoWaitersParked(t *testing.T) {
	addr := startServer(t)
	cl := dialClient(t, addr)
	name := countertest.FreshName("joincancel")
	c := cl.Counter(name)
	base := c.Stats().Suspends

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- c.CheckContext(ctx1, 9) }()
	awaitSuspends(t, c, base+1) // parked on the server
	go func() { second <- c.CheckContext(ctx2, 9) }()
	awaitSuspends(t, c, base+2) // joined
	co := c.CheckChan(9)

	cancel1() // the call that parked the level leaves two co-waiters
	if err := recv(t, first, "the first cancelled call"); err != context.Canceled {
		t.Fatalf("first cancelled call = %v, want Canceled", err)
	}
	cancel2()
	if err := recv(t, second, "the second cancelled call"); err != context.Canceled {
		t.Fatalf("second cancelled call = %v, want Canceled", err)
	}
	select {
	case err := <-co:
		t.Fatalf("the co-waiter resolved with %v after two joined calls cancelled", err)
	case <-time.After(30 * time.Millisecond):
	}

	// On level 10 the call that parked it leaves last.
	ctx3, cancel3 := context.WithCancel(context.Background())
	ctx4, cancel4 := context.WithCancel(context.Background())
	third, fourth := make(chan error, 1), make(chan error, 1)
	go func() { third <- c.CheckContext(ctx3, 10) }()
	awaitSuspends(t, c, base+6) // 9's two re-asks and 10's wait parked
	go func() { fourth <- c.CheckContext(ctx4, 10) }()
	awaitSuspends(t, c, base+7)
	cancel4()
	if err := recv(t, fourth, "the joined call on 10"); err != context.Canceled {
		t.Fatalf("joined call on 10 = %v, want Canceled", err)
	}
	cancel3()
	if err := recv(t, third, "the last call on 10"); err != context.Canceled {
		t.Fatalf("last call on 10 = %v, want Canceled", err)
	}
	dialClient(t, addr).Counter(name).Increment(9)
	if err := recv(t, co, "the co-waiter"); err != nil {
		t.Fatalf("the co-waiter resolved with %v, want nil", err)
	}
	c.Reset() // panics if counterd still holds a suspended wait
}

// TestJoinedCancelAfterOwnIncrement: a joined CheckContext cancelled
// after its client's own satisfying Increment returns nil, both with a
// co-waiter on its level (it asks the server again under a fresh id) and
// as the last call on it (it cancels the shared wait). The server's
// answers are withheld until the link is severed, so the reconnect's
// re-send decides.
func TestJoinedCancelAfterOwnIncrement(t *testing.T) {
	for _, last := range []bool{false, true} {
		t.Run(fmt.Sprintf("last=%v", last), func(t *testing.T) {
			addr := startServer(t)
			p := startProxy(t, addr)
			cl, err := remote.Dial(p.lis.Addr().String(), remote.WithBackoff(time.Millisecond, 10*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			c := cl.Counter(countertest.FreshName("joinsbc"))
			base := c.Stats().Suspends

			ctx1, cancel1 := context.WithCancel(context.Background())
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel1()
			first, second := make(chan error, 1), make(chan error, 1)
			go func() { first <- c.CheckContext(ctx1, 5) }()
			awaitSuspends(t, c, base+1)
			go func() { second <- c.CheckContext(ctx2, 5) }()
			awaitSuspends(t, c, base+2)
			if last {
				cancel1()
				if err := recv(t, first, "the co-waiter's cancel"); err != context.Canceled {
					t.Fatalf("co-waiter cancelled before any increment = %v, want Canceled", err)
				}
			}

			p.withhold()
			c.Increment(5)
			cancel2() // behind the increment on the same link
			time.Sleep(30 * time.Millisecond)
			p.kill()
			if err := recv(t, second, "the joined call cancelled after the increment"); err != nil {
				t.Fatalf("joined call cancelled after its client's satisfying increment = %v, want nil", err)
			}
			if !last {
				if err := recv(t, first, "the co-waiter"); err != nil {
					t.Fatalf("co-waiter = %v, want nil", err)
				}
			}
		})
	}
}

// TestJoinedWaitsSurviveReconnect: severing the link re-sends one
// OpCheck per joined level, and the one wake per level resolves every
// call joined on it.
func TestJoinedWaitsSurviveReconnect(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	reconnected := make(chan struct{}, 1)
	cl, err := remote.Dial(p.lis.Addr().String(),
		remote.WithBackoff(time.Millisecond, 10*time.Millisecond),
		remote.WithRetryNotify(func(failures int, _ error) {
			if failures == 0 {
				reconnected <- struct{}{}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	name := countertest.FreshName("joinresend")
	c := cl.Counter(name)

	const levels, perLevel = 3, 8
	var chans []<-chan error
	for level := uint64(1); level <= levels; level++ {
		for range perLevel {
			chans = append(chans, c.CheckChan(level))
		}
	}
	c.Stats() // every level parked on the server
	sent0, _ := cl.WireStats()
	p.kill()
	select {
	case <-reconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("the client never reconnected")
	}
	sent, recv0 := cl.WireStats()
	if sent-sent0 != levels {
		t.Fatalf("the reconnect re-sent %d frames for %d joined levels, want one OpCheck each", sent-sent0, levels)
	}
	dialClient(t, addr).Counter(name).Increment(levels)
	for i, ch := range chans {
		if err := recv(t, ch, fmt.Sprintf("joined wait %d", i)); err != nil {
			t.Fatalf("joined wait %d resolved with %v across the reconnect", i, err)
		}
	}
	if _, got := cl.WireStats(); got-recv0 != levels {
		t.Fatalf("%d joined waits received %d frames after the reconnect, want one OpWake per level", len(chans), got-recv0)
	}
}

// TestCloseResolvesJoinedWaits: Close hands ErrClosed to every call
// joined on a level, CheckChan and CheckContext alike.
func TestCloseResolvesJoinedWaits(t *testing.T) {
	addr := startServer(t)
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.Counter(countertest.FreshName("joinclose"))
	var chans []<-chan error
	for level := uint64(1); level <= 2; level++ {
		for range 5 {
			chans = append(chans, c.CheckChan(level))
		}
		ch := make(chan error, 1)
		go func() { ch <- c.CheckContext(context.Background(), level) }()
		chans = append(chans, ch)
	}
	awaitSuspends(t, c, 12)
	cl.Close()
	for i, ch := range chans {
		if err := recv(t, ch, fmt.Sprintf("joined wait %d", i)); err != remote.ErrClosed {
			t.Fatalf("joined wait %d after Close = %v, want ErrClosed", i, err)
		}
	}
}

// TestJoinedWaitStats: Suspends counts every blocking call — counterd's
// one wait for the level, which every session reads, plus the calls
// that joined it, which only this client reads — and RemoteWaitNanos
// sums each call's own time on the wire.
func TestJoinedWaitStats(t *testing.T) {
	addr := startServer(t)
	name := countertest.FreshName("joinstats")
	a := dialClient(t, addr).Counter(name)
	b := dialClient(t, addr).Counter(name)
	s0 := b.Stats()

	tA := time.Now()
	first := a.CheckChan(3)
	t1 := time.Now()
	time.Sleep(50 * time.Millisecond)
	const joiners = 3
	tB := time.Now()
	chans := []<-chan error{first}
	for range joiners {
		chans = append(chans, a.CheckChan(3))
	}
	t2 := time.Now()
	time.Sleep(50 * time.Millisecond)

	sa := a.Stats()
	if sa.Suspends != s0.Suspends+1+joiners {
		t.Fatalf("the joining client reads Suspends %d, want %d: counterd's one plus %d joins",
			sa.Suspends, s0.Suspends+1+joiners, joiners)
	}
	if sb := b.Stats(); sb.Suspends != s0.Suspends+1 {
		t.Fatalf("another session reads Suspends %d, want %d: counterd's one", sb.Suspends, s0.Suspends+1)
	}
	tInc := time.Now()
	b.Increment(3)
	for i, ch := range chans {
		if err := recv(t, ch, fmt.Sprintf("wait %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tE := time.Now()
	got := time.Duration(a.Stats().RemoteWaitNanos - sa.RemoteWaitNanos)
	lo := tInc.Sub(t1) + joiners*tInc.Sub(t2)
	hi := tE.Sub(tA) + joiners*tE.Sub(tB)
	if got < lo || got > hi {
		t.Fatalf("RemoteWaitNanos rose by %v for four calls on one level, want the sum of their waits, within [%v, %v]", got, lo, hi)
	}
}

// TestJoinedWaitProbe: the probe sees EventSuspend per blocking call and
// EventWake once per level, as an in-process counter's does, however
// many calls share the level's wire wait.
func TestJoinedWaitProbe(t *testing.T) {
	type count struct {
		kind  counter.EventKind
		level uint64
	}
	record := func(set func(func(counter.Event))) (func() map[count]int, func()) {
		var mu sync.Mutex
		got := map[count]int{}
		set(func(e counter.Event) {
			mu.Lock()
			got[count{e.Kind, e.Level}]++
			mu.Unlock()
		})
		return func() map[count]int {
			mu.Lock()
			defer mu.Unlock()
			return maps.Clone(got)
		}, func() { set(nil) }
	}
	levels := []uint64{5, 5, 5, 6, 6}

	local := counter.NewSharded()
	localEvents, stop := record(local.SetProbe)
	var wg sync.WaitGroup
	for _, level := range levels {
		wg.Add(1)
		go func() { defer wg.Done(); local.Check(level) }()
	}
	for local.Stats().Suspends < uint64(len(levels)) {
		time.Sleep(time.Millisecond)
	}
	local.Increment(6)
	wg.Wait()
	stop()

	addr := startServer(t)
	c := dialClient(t, addr).Counter(countertest.FreshName("joinprobe"))
	remoteEvents, stop := record(c.SetProbe)
	var chans []<-chan error
	for _, level := range levels {
		chans = append(chans, c.CheckChan(level))
	}
	c.Increment(6)
	for i, ch := range chans {
		if err := recv(t, ch, fmt.Sprintf("wait %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	want := map[count]int{
		{counter.EventSuspend, 5}: 3, {counter.EventSuspend, 6}: 2,
		{counter.EventWake, 5}: 1, {counter.EventWake, 6}: 1,
		{counter.EventIncrement, 6}: 1,
	}
	if got := localEvents(); !maps.Equal(got, want) {
		t.Errorf("in-process probe: events %v, want %v", got, want)
	}
	if got := remoteEvents(); !maps.Equal(got, want) {
		t.Errorf("remote probe: events %v, want %v", got, want)
	}
}
