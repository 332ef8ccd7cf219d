package predicate_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// --- Arm: the goroutine-free callback analogue of Wait -------------------

// firer is a caller-owned Firer that runs fn, as counterd's wait
// entries are.
type firer struct{ fn func() }

func (f *firer) Fire() { f.fn() }

func TestArmFiresOnSatisfaction(t *testing.T) {
	a, b := core.New(), core.New()
	cond := predicate.NewCond(predicate.SumAtLeast(10), a, b)
	var fired atomic.Int32
	f := &firer{func() { fired.Add(1) }}
	if !cond.Arm(f) {
		t.Fatal("Arm on an unsatisfied predicate reported not armed")
	}
	a.Increment(4)
	b.Increment(5)
	time.Sleep(10 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("callback fired %d times below target", n)
	}
	a.Increment(1)
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("callback fired %d times, want 1", n)
	}
	if cond.Disarm(f) {
		t.Fatal("Disarm after the callback ran reported it was prevented")
	}
}

func TestArmAlreadySatisfied(t *testing.T) {
	a := core.New()
	a.Increment(5)
	cond := predicate.NewCond(predicate.SumAtLeast(5), a)
	f := &firer{func() { t.Error("callback ran for an immediately-satisfied Arm") }}
	if cond.Arm(f) {
		t.Fatal("Arm on a satisfied predicate reported armed")
	}
	if cond.Disarm(f) {
		t.Fatal("Disarm of a firer Arm refused reported it was prevented")
	}
	if !cond.Poll() {
		t.Fatal("Arm's immediate evaluation did not settle the Cond")
	}
}

// TestArmKeepsSentinelsWithoutWaiters is the property counterd's parked
// predicate waits depend on: an armed callback holds the sentinels parked
// with zero goroutines blocked in Wait.
func TestArmKeepsSentinelsWithoutWaiters(t *testing.T) {
	a, b := core.New(), core.New()
	cond := predicate.NewCond(predicate.Thresholds([]uint64{3, 3}, 2), a, b)
	done := make(chan struct{})
	f := &firer{func() { close(done) }}
	if !cond.Arm(f) {
		t.Fatal("not armed")
	}
	defer cond.Disarm(f)
	st := cond.Stats()
	if st.Waiters != 0 || st.Hooks != 1 || st.Armed == 0 {
		t.Fatalf("stats after Arm = %+v, want 0 waiters, 1 hook, >0 armed sentinels", st)
	}
	a.Increment(3)
	b.Increment(3)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callback never ran")
	}
}

// TestThresholdKickKeepsParkedSentinels pins a cheap kick: a member of
// a 3-of-4 quorum reaching its level fires its sentinel, and the kick —
// evaluated on the incrementing goroutine, since nothing holds the
// Cond's lock — keeps the other three sentinels parked instead of
// re-arming them, because a threshold's frontiers never move. The
// increment that flips the quorum settles the Cond before it returns.
func TestThresholdKickKeepsParkedSentinels(t *testing.T) {
	members := make([]*core.Counter, 4)
	cs := make([]core.Sentineler, len(members))
	for i := range members {
		members[i] = core.New()
		cs[i] = members[i]
	}
	cond := predicate.NewCond(predicate.Thresholds([]uint64{2, 2, 2, 2}, 3), cs...)
	var fired atomic.Int32
	if !cond.Arm(&firer{func() { fired.Add(1) }}) {
		t.Fatal("not armed")
	}
	members[2].Increment(2)
	if st := cond.Stats(); st.Fires != 1 || st.Armed != 3 || st.Arms != 4 || st.Reparks != 0 {
		t.Fatalf("stats after one member crossed = %+v, want Fires 1, Armed 3, Arms 4, Reparks 0", st)
	}
	members[0].Increment(1) // below its level: no fire
	members[0].Increment(1) // the second crossing
	select {
	case <-cond.Done():
		t.Fatal("Done closed with two of four members at their level")
	default:
	}
	members[3].Increment(5)
	select {
	case <-cond.Done():
	default:
		t.Fatal("Done still open when the flipping Increment returned")
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("callback ran %d times by the flipping Increment's return, want 1", n)
	}
	if st := cond.Stats(); st.Arms != 4 || st.Reparks != 0 || st.Armed != 0 {
		t.Fatalf("stats after the flip = %+v, want Arms 4, Reparks 0, Armed 0", st)
	}
}

// TestArmCancelDisarms mirrors TestCancelDisarms for the callback path:
// disarming the only armed firer (with no Wait goroutines) must leave
// the watched counters sentinel-free so Reset works again.
func TestArmCancelDisarms(t *testing.T) {
	a := core.New()
	cond := predicate.NewCond(predicate.SumAtLeast(100), a)
	f := &firer{func() { t.Error("cancelled callback ran") }}
	if !cond.Arm(f) {
		t.Fatal("not armed")
	}
	if !cond.Disarm(f) {
		t.Fatal("Disarm of a pending firer reported it already ran")
	}
	if cond.Disarm(f) {
		t.Fatal("second Disarm reported it was prevented again")
	}
	st := cond.Stats()
	if st.Armed != 0 || st.Hooks != 0 {
		t.Fatalf("stats after cancel = %+v, want no armed sentinels, no hooks", st)
	}
	a.Reset() // panics if a sentinel was left parked
	a.Increment(100)
	time.Sleep(10 * time.Millisecond)
}

// TestArmManyCallbacksOneClose: N armed callbacks all run on the single
// satisfying evaluation, interleaved with Wait goroutines.
func TestArmFanOut(t *testing.T) {
	a := core.New()
	cond := predicate.NewCond(predicate.SumAtLeast(1), a)
	const n = 64
	var fired atomic.Int32
	for i := 0; i < n; i++ {
		if !cond.Arm(&firer{func() { fired.Add(1) }}) {
			t.Fatal("not armed")
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	mustBlock(t, errc)
	a.Increment(1)
	waitNil(t, errc)
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fired.Load(); got != n {
		t.Fatalf("%d of %d callbacks ran", got, n)
	}
}

func TestArmConcurrentCancelAndSatisfy(t *testing.T) {
	for round := 0; round < 50; round++ {
		a := core.New()
		cond := predicate.NewCond(predicate.SumAtLeast(1), a)
		var fired atomic.Int32
		f := &firer{func() { fired.Add(1) }}
		if !cond.Arm(f) {
			t.Fatal("not armed")
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var prevented atomic.Bool
		go func() { defer wg.Done(); prevented.Store(cond.Disarm(f)) }()
		go func() { defer wg.Done(); a.Increment(1) }()
		wg.Wait()
		// Exactly one side wins: either the callback was prevented and
		// never runs, or it runs exactly once.
		time.Sleep(2 * time.Millisecond)
		ran := fired.Load()
		if prevented.Load() && ran != 0 {
			t.Fatalf("round %d: cancel reported prevented but callback ran %d times", round, ran)
		}
		if !prevented.Load() && ran != 1 {
			t.Fatalf("round %d: cancel lost the race but callback ran %d times", round, ran)
		}
	}
}

// --- External: one remote registration replaces the sentinel set ---------

// fakeHost is an External strategy with scripted behaviour.
type fakeHost struct {
	mu      sync.Mutex
	refuse  bool
	armCnt  int
	fire    func(bool)
	cancels int
}

func (h *fakeHost) strategy(fire func(bool)) (func() bool, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armCnt++
	if h.refuse {
		return nil, false
	}
	h.fire = fire
	return func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.cancels++
		prevented := h.fire != nil
		h.fire = nil
		return prevented
	}, true
}

// consulted reports how many times the Cond has asked the host.
func (h *fakeHost) consulted() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.armCnt
}

// setRefuse makes the host refuse every later registration.
func (h *fakeHost) setRefuse() {
	h.mu.Lock()
	h.refuse = true
	h.mu.Unlock()
}

func (h *fakeHost) fireNow(satisfied bool) bool {
	h.mu.Lock()
	fire := h.fire
	h.fire = nil
	h.mu.Unlock()
	if fire == nil {
		return false
	}
	fire(satisfied)
	return true
}

func TestExternalAuthoritativeFire(t *testing.T) {
	// The local counters never move: satisfaction arrives only through
	// the external registration, standing in for a server whose values
	// run ahead of the client's watermarks.
	a, b := core.New(), core.New()
	host := &fakeHost{}
	cond := new(predicate.Cond)
	cond.InitExternal(predicate.SumAtLeast(10), host.strategy, a, b)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	mustBlock(t, errc)
	st := cond.Stats()
	if !st.External {
		t.Fatalf("stats = %+v, want an armed external registration", st)
	}
	if st.Armed != 0 {
		t.Fatalf("stats = %+v: sentinels armed alongside the external registration", st)
	}
	if !host.fireNow(true) {
		t.Fatal("no registration to fire")
	}
	waitNil(t, errc)
}

func TestExternalLocalSatisfactionFirst(t *testing.T) {
	// A predicate the local bounds already satisfy settles without ever
	// consulting the host.
	a := core.New()
	a.Increment(7)
	host := &fakeHost{}
	cond := new(predicate.Cond)
	cond.InitExternal(predicate.SumAtLeast(5), host.strategy, a)
	if err := cond.Wait(context.Background()); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if n := host.consulted(); n != 0 {
		t.Fatalf("host consulted %d times for a locally-satisfied predicate", n)
	}
}

func TestExternalRefusalFallsBackToSentinels(t *testing.T) {
	a := core.New()
	host := &fakeHost{refuse: true}
	cond := new(predicate.Cond)
	cond.InitExternal(predicate.SumAtLeast(3), host.strategy, a)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	mustBlock(t, errc)
	st := cond.Stats()
	if st.External || st.Armed == 0 {
		t.Fatalf("stats after refusal = %+v, want sentinels armed, no external", st)
	}
	if n := host.consulted(); n != 1 {
		t.Fatalf("host consulted %d times, want exactly 1 (refusal is permanent)", n)
	}
	a.Increment(3)
	waitNil(t, errc)
}

// TestExternalDegradeMidWaitFallsBackToSentinels: a registration that
// dies without an answer is a kick, not a verdict. The Cond asks its
// host again, and only the host's refusal of that re-ask moves it to
// per-counter sentinels.
func TestExternalDegradeMidWaitFallsBackToSentinels(t *testing.T) {
	a := core.New()
	host := &fakeHost{}
	cond := new(predicate.Cond)
	cond.InitExternal(predicate.SumAtLeast(3), host.strategy, a)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	mustBlock(t, errc)
	host.setRefuse()          // the host is going away: it will refuse the re-ask
	if !host.fireNow(false) { // registration dies without an answer
		t.Fatal("no registration to fire")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := cond.Stats(); !st.External && st.Armed > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); st.External || st.Armed == 0 {
		t.Fatalf("stats after degradation = %+v, want sentinels armed, no external", st)
	}
	a.Increment(3)
	waitNil(t, errc)
	if n := host.consulted(); n != 2 {
		t.Fatalf("host consulted %d times, want 2 (the registration, then the refused re-ask)", n)
	}
}

// TestExternalLostRegistrationReArms: when a registration dies without
// an answer and the host is still willing, the Cond registers again and
// stays External. Monotonicity makes the re-ask safe, since the host can
// only observe values at least as large as before.
func TestExternalLostRegistrationReArms(t *testing.T) {
	a := core.New()
	host := &fakeHost{}
	cond := new(predicate.Cond)
	cond.InitExternal(predicate.SumAtLeast(3), host.strategy, a)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	mustBlock(t, errc)
	if !host.fireNow(false) {
		t.Fatal("no registration to fire")
	}
	deadline := time.Now().Add(5 * time.Second)
	for host.consulted() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := host.consulted(); n != 2 {
		t.Fatalf("host consulted %d times after a lost registration, want 2", n)
	}
	if st := cond.Stats(); !st.External || st.Armed != 0 {
		t.Fatalf("stats after the re-ask = %+v, want External with no sentinels", st)
	}
	mustBlock(t, errc)
	if !host.fireNow(true) {
		t.Fatal("no re-armed registration to fire")
	}
	waitNil(t, errc)
}

func TestExternalCancelOnLastWaiterOut(t *testing.T) {
	a := core.New()
	host := &fakeHost{}
	cond := new(predicate.Cond)
	cond.InitExternal(predicate.SumAtLeast(3), host.strategy, a)
	ctx, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(ctx) }()
	mustBlock(t, errc)
	stop()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	host.mu.Lock()
	cancels, live := host.cancels, host.fire != nil
	host.mu.Unlock()
	if cancels != 1 || live {
		t.Fatalf("after last waiter out: cancels = %d, registration live = %v", cancels, live)
	}
	// A fresh Wait re-registers with the host.
	errc2 := make(chan error, 1)
	go func() { errc2 <- cond.Wait(context.Background()) }()
	mustBlock(t, errc2)
	if n := host.consulted(); n != 2 {
		t.Fatalf("host consulted %d times after re-wait, want 2", n)
	}
	host.fireNow(true)
	waitNil(t, errc2)
}

// TestExternalStaleFireIgnored pins the generation guard: a cancelled
// registration's late unsatisfied fire must not tear down the newer
// registration that replaced it.
func TestExternalStaleFireIgnored(t *testing.T) {
	a := core.New()
	host := &fakeHost{}
	cond := new(predicate.Cond)
	cond.InitExternal(predicate.SumAtLeast(3), host.strategy, a)

	ctx, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(ctx) }()
	mustBlock(t, errc)
	host.mu.Lock()
	staleFire := host.fire // captured before cancellation
	host.mu.Unlock()
	stop()
	<-errc

	errc2 := make(chan error, 1)
	go func() { errc2 <- cond.Wait(context.Background()) }()
	mustBlock(t, errc2)

	staleFire(false) // the old registration's last breath
	time.Sleep(10 * time.Millisecond)
	st := cond.Stats()
	if !st.External {
		t.Fatalf("stats after stale fire = %+v, want the new registration still armed", st)
	}
	host.fireNow(true)
	waitNil(t, errc2)
}
