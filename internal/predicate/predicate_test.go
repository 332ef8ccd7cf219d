package predicate_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// Every core implementation presents the engine's watch surface.
var _ core.Sentineler = (*core.Counter)(nil)
var _ core.Sentineler = (*core.ShardedCounter)(nil)

func waitNil(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait never returned")
	}
}

func mustBlock(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		t.Fatalf("Wait returned early with %v", err)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestSumAcrossImpls(t *testing.T) {
	for _, impl := range core.Registry() {
		t.Run(string(impl), func(t *testing.T) {
			a := core.NewImpl(impl).(core.Sentineler)
			b := core.NewImpl(impl).(core.Sentineler)
			cond := predicate.NewCond(predicate.SumAtLeast(10), a, b)
			errc := make(chan error, 1)
			go func() { errc <- cond.Wait(context.Background()) }()
			mustBlock(t, errc)
			a.(core.Interface).Increment(4)
			b.(core.Interface).Increment(5)
			mustBlock(t, errc) // 9 < 10
			a.(core.Interface).Increment(1)
			waitNil(t, errc)
		})
	}
}

// TestThresholdsAcrossImpls is TestSumAcrossImpls for a k-of-n quorum:
// members cross out of order, with sub-threshold increments between, and
// the Wait releases exactly at the k-th crossing. The broadcast design
// fires every sentinel on any increment of its counter, so its slots are
// spent and re-armed at unchanged levels over and over; a spent slot
// left unarmed would lose the crossing that follows.
func TestThresholdsAcrossImpls(t *testing.T) {
	const n, k, level = 5, 3, 4
	for _, impl := range core.Registry() {
		t.Run(string(impl), func(t *testing.T) {
			members := make([]core.Interface, n)
			cs := make([]core.Sentineler, n)
			levels := make([]uint64, n)
			for i := range members {
				members[i] = core.NewImpl(impl)
				cs[i] = members[i].(core.Sentineler)
				levels[i] = level
			}
			cond := predicate.NewCond(predicate.Thresholds(levels, k), cs...)
			errc := make(chan error, 1)
			go func() { errc <- cond.Wait(context.Background()) }()
			mustBlock(t, errc)
			members[3].Increment(level) // first crossing
			members[0].Increment(level - 1)
			members[1].Increment(1)
			mustBlock(t, errc)
			members[4].Increment(level + 2) // second crossing
			members[1].Increment(level - 2)
			members[2].Increment(level - 1)
			mustBlock(t, errc)
			members[0].Increment(1) // third crossing: the quorum flips
			waitNil(t, errc)
		})
	}
}

// TestSumSplitAdvance is the regression for the naive frontier scheme:
// with a = 3, b = 7 and target 10, "park b's sentinel at 10 - 3" style
// frontiers are never reached by either counter, yet the sum flips.
// The pigeonhole gap-sharing frontiers must release the waiter.
func TestSumSplitAdvance(t *testing.T) {
	a, b := core.New(), core.New()
	cond := predicate.NewCond(predicate.SumAtLeast(10), a, b)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	mustBlock(t, errc)
	a.Increment(3)
	b.Increment(7)
	waitNil(t, errc)
}

// TestSumAdversarialDribble drives the sum up one unit at a time,
// alternating counters — the worst case for frontier re-parking: the
// predicate must still flip exactly at the target.
func TestSumAdversarialDribble(t *testing.T) {
	a, b := core.New(), core.New()
	const target = 64
	cond := predicate.NewCond(predicate.SumAtLeast(target), a, b)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	for i := 0; i < target-1; i++ {
		if i%2 == 0 {
			a.Increment(1)
		} else {
			b.Increment(1)
		}
	}
	mustBlock(t, errc) // 63 < 64
	b.Increment(1)
	waitNil(t, errc)
}

func TestThresholdsMin(t *testing.T) {
	a, b := core.New(), core.New()
	// min(a, b) >= 5 is Thresholds([5 5], k=2).
	cond := predicate.NewCond(predicate.Thresholds([]uint64{5, 5}, 2), a, b)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	a.Increment(100)
	mustBlock(t, errc)
	b.Increment(5)
	waitNil(t, errc)
}

func TestThresholdsKOfN(t *testing.T) {
	const n, k = 5, 3
	counters := make([]*core.Counter, n)
	cs := make([]core.Sentineler, n)
	levels := make([]uint64, n)
	for i := range counters {
		counters[i] = core.New()
		cs[i] = counters[i]
		levels[i] = 2
	}
	cond := predicate.NewCond(predicate.Thresholds(levels, k), cs...)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	counters[0].Increment(2)
	counters[3].Increment(2)
	counters[1].Increment(1) // below its threshold: must not count
	mustBlock(t, errc)
	counters[4].Increment(2) // third member reaches: quorum
	waitNil(t, errc)
}

func TestSatisfiedBeatsCancelled(t *testing.T) {
	a, b := core.New(), core.New()
	a.Increment(6)
	b.Increment(6)
	cond := predicate.NewCond(predicate.SumAtLeast(10), a, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cond.Wait(ctx); err != nil {
		t.Fatalf("Wait(cancelled ctx) on a satisfied predicate = %v, want nil", err)
	}
	unsat := predicate.NewCond(predicate.SumAtLeast(100), core.New())
	if err := unsat.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait(cancelled ctx) on an unsatisfied predicate = %v, want Canceled", err)
	}
}

func TestPoll(t *testing.T) {
	a := core.New()
	cond := predicate.NewCond(predicate.SumAtLeast(3), a)
	if cond.Poll() {
		t.Fatal("Poll true on a zero counter")
	}
	a.Increment(3)
	if !cond.Poll() {
		t.Fatal("Poll false with the predicate satisfied")
	}
	select {
	case <-cond.Done():
	default:
		t.Fatal("Done not closed after a satisfying Poll")
	}
}

// TestCancelDisarms pins the no-trace property: once every waiter has
// cancelled, the watched counters carry no sentinel, so Reset succeeds.
func TestCancelDisarms(t *testing.T) {
	for _, impl := range core.Registry() {
		t.Run(string(impl), func(t *testing.T) {
			a := core.NewImpl(impl)
			b := core.NewImpl(impl)
			cond := predicate.NewCond(predicate.SumAtLeast(50),
				a.(core.Sentineler), b.(core.Sentineler))
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 2)
			go func() { errc <- cond.Wait(ctx) }()
			go func() { errc <- cond.Wait(ctx) }()
			time.Sleep(20 * time.Millisecond) // let them arm and park
			cancel()
			for i := 0; i < 2; i++ {
				if err := <-errc; err != context.Canceled {
					t.Fatalf("Wait = %v, want Canceled", err)
				}
			}
			// The chan ablation releases its sentinel gate from a
			// goroutine; allow the disarm to settle.
			deadline := time.After(5 * time.Second)
			for {
				if ok := func() (ok bool) {
					defer func() { ok = recover() == nil }()
					a.Reset()
					b.Reset()
					return
				}(); ok {
					return
				}
				select {
				case <-deadline:
					t.Fatal("Reset still panics after all predicate waiters cancelled")
				default:
					time.Sleep(time.Millisecond)
				}
			}
		})
	}
}

// TestSharedCondFanOut releases many waiters from one Cond with one
// flipping increment, and checks the mechanism bill: sentinel arms
// scale with watched counters and frontier moves, not with waiters.
func TestSharedCondFanOut(t *testing.T) {
	a, b := core.New(), core.New()
	const waiters = 100
	cond := predicate.NewCond(predicate.SumAtLeast(1000), a, b)
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cond.Wait(context.Background())
		}(i)
	}
	a.Increment(999)
	time.Sleep(20 * time.Millisecond)
	b.Increment(1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fan-out waiters still blocked")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	s := cond.Stats()
	if !s.Satisfied {
		t.Fatal("Stats.Satisfied false after release")
	}
	if s.Armed != 0 {
		t.Fatalf("%d sentinels still armed after satisfaction", s.Armed)
	}
	// Arms is bounded by evaluation passes × counters, independent of
	// the 100 waiters; give re-park slack but catch O(waiters) blowups.
	if s.Arms > 40 {
		t.Fatalf("Arms = %d for 2 counters and a handful of frontier moves — scaling with waiters?", s.Arms)
	}
}

// TestNonFlippingIncrementsWakeNothing pins the no-thundering-herd
// claim at the unit level: increments that cannot flip the predicate
// fire no sentinel and wake no waiter.
func TestNonFlippingIncrementsWakeNothing(t *testing.T) {
	a, b := core.New(), core.New()
	cond := predicate.NewCond(predicate.SumAtLeast(1_000_000), a, b)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let it arm
	// Frontiers sit at 500_000 each; stay far below.
	for i := 0; i < 1000; i++ {
		a.Increment(1)
	}
	mustBlock(t, errc)
	if fires := cond.Stats().Fires; fires != 0 {
		t.Fatalf("Fires = %d after 1000 sub-frontier increments, want 0", fires)
	}
	a.Increment(1_000_000)
	waitNil(t, errc)
}

// TestConcurrentWaitersAndIncrementers is the -race workout: many
// waiters joining while increments run, plus cancellations mid-flight.
func TestConcurrentWaitersAndIncrementers(t *testing.T) {
	a, b, c := core.New(), core.New(), core.New()
	cond := predicate.NewCond(predicate.SumAtLeast(3000), a, b, c)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*time.Millisecond)
				defer cancel()
				_ = cond.Wait(ctx)
				_ = cond.Wait(context.Background())
				return
			}
			if err := cond.Wait(context.Background()); err != nil {
				t.Errorf("Wait = %v", err)
			}
		}(i)
	}
	for _, ctr := range []*core.Counter{a, b, c} {
		wg.Add(1)
		go func(ctr *core.Counter) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ctr.Increment(1)
			}
		}(ctr)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress run wedged")
	}
}
