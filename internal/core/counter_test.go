package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forEachImpl runs a subtest against every registered implementation, so
// a new entry in the registry is covered by the whole conformance
// battery automatically.
func forEachImpl(t *testing.T, f func(t *testing.T, c Interface)) {
	t.Helper()
	for _, impl := range Registry() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			t.Parallel()
			f(t, NewImpl(impl))
		})
	}
}

func TestZeroValueSatisfiesCheckZero(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		done := make(chan struct{})
		go func() {
			c.Check(0)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Check(0) blocked on a fresh counter")
		}
		if got := c.Value(); got != 0 {
			t.Fatalf("Value() = %d, want 0", got)
		}
	})
}

func TestIncrementAccumulates(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		c.Increment(3)
		c.Increment(0)
		c.Increment(4)
		if got := c.Value(); got != 7 {
			t.Fatalf("Value() = %d, want 7", got)
		}
	})
}

func TestCheckSatisfiedReturnsImmediately(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		c.Increment(10)
		for level := uint64(0); level <= 10; level++ {
			done := make(chan struct{})
			go func() {
				c.Check(level)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("Check(%d) blocked with value 10", level)
			}
		}
	})
}

func TestCheckBlocksUntilLevelReached(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		var passed atomic.Bool
		released := make(chan struct{})
		go func() {
			c.Check(5)
			passed.Store(true)
			close(released)
		}()
		// The checker must not pass while value < level.
		c.Increment(4)
		time.Sleep(20 * time.Millisecond)
		if passed.Load() {
			t.Fatal("Check(5) passed with value 4")
		}
		c.Increment(1)
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatal("Check(5) still blocked with value 5")
		}
	})
}

func TestIncrementWakesAllSatisfiedLevels(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		const waiters = 8
		var wg sync.WaitGroup
		var passedLow, passedHigh atomic.Int32
		for i := 0; i < waiters; i++ {
			wg.Add(2)
			go func(lv uint64) {
				defer wg.Done()
				c.Check(lv) // levels 1..8
				passedLow.Add(1)
			}(uint64(i + 1))
			go func(lv uint64) {
				defer wg.Done()
				c.Check(lv) // levels 101..108
				passedHigh.Add(1)
			}(uint64(i + 101))
		}
		time.Sleep(20 * time.Millisecond)
		c.Increment(50) // satisfies all low levels, none of the high
		deadline := time.After(5 * time.Second)
		for passedLow.Load() != waiters {
			select {
			case <-deadline:
				t.Fatalf("only %d/%d low waiters passed", passedLow.Load(), waiters)
			default:
				time.Sleep(time.Millisecond)
			}
		}
		if n := passedHigh.Load(); n != 0 {
			t.Fatalf("%d high waiters passed with value 50", n)
		}
		c.Increment(60)
		wg.Wait()
		if n := passedHigh.Load(); n != waiters {
			t.Fatalf("high waiters passed = %d, want %d", n, waiters)
		}
	})
}

func TestManyWaitersSameLevel(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		const waiters = 64
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Check(1)
			}()
		}
		time.Sleep(10 * time.Millisecond)
		c.Increment(1)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("not all same-level waiters released")
		}
	})
}

// TestIncrementOverflowPanics: an Increment past the uint64 range panics,
// and leaves the counter as it was for a caller that recovers the panic
// (counterd turns it into a wire error): the old value, a repeat that
// panics again, and Stats and Reset that return. Those run on their own
// goroutine under a deadline, so a design that panics while holding its
// mutex fails the test instead of hanging it.
func TestIncrementOverflowPanics(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		overflows := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			c.Increment(1)
			return false
		}
		c.Increment(^uint64(0))
		if !overflows() {
			t.Fatal("overflowing Increment did not panic")
		}
		failure := make(chan string, 1)
		go func() {
			switch {
			case c.Value() != ^uint64(0):
				failure <- fmt.Sprintf("Value() = %d after the overflow, want the old %d", c.Value(), ^uint64(0))
			case !overflows():
				failure <- "repeated overflowing Increment did not panic"
			case c.(StatsProvider).Stats().Increments != 1:
				failure <- "Stats counted an overflowing Increment"
			default:
				c.Reset()
				c.Increment(1)
				if v := c.Value(); v != 1 {
					failure <- fmt.Sprintf("Value() after Reset and Increment(1) = %d, want 1", v)
					return
				}
				failure <- ""
			}
		}()
		select {
		case msg := <-failure:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("counter wedged by the overflow panic: Increment, Stats or Reset never returned")
		}
	})
}

func TestResetAllowsReuse(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		c.Increment(42)
		c.Reset()
		if got := c.Value(); got != 0 {
			t.Fatalf("Value() after Reset = %d, want 0", got)
		}
		// The counter must be fully functional after Reset.
		released := make(chan struct{})
		go func() {
			c.Check(3)
			close(released)
		}()
		time.Sleep(10 * time.Millisecond)
		c.Increment(3)
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatal("Check blocked after Reset+Increment")
		}
	})
}

func TestResetWithWaitersPanics(t *testing.T) {
	// ChanCounter waiters leave no registration we can flush from this
	// test without an increment, so give each impl a waiter and expect
	// the documented panic.
	forEachImpl(t, func(t *testing.T, c Interface) {
		started := make(chan struct{})
		release := make(chan struct{})
		go func() {
			close(started)
			c.Check(100)
			close(release)
		}()
		<-started
		time.Sleep(20 * time.Millisecond) // let the waiter suspend
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Reset with a suspended waiter did not panic")
				}
			}()
			c.Reset()
		}()
		c.Increment(100) // release the waiter so the test can finish
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never released")
		}
	})
}

func TestCheckContextCancellation(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- c.CheckContext(ctx, 10) }()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-errc:
			if err != context.Canceled {
				t.Fatalf("CheckContext = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("CheckContext did not return after cancel")
		}
		// Cancellation must not perturb the counter: a later increment
		// still satisfies new checks.
		c.Increment(10)
		if err := c.CheckContext(context.Background(), 10); err != nil {
			t.Fatalf("CheckContext after increment = %v", err)
		}
	})
}

func TestCheckContextSatisfiedIgnoresLiveContext(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		c.Increment(5)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := c.CheckContext(ctx, 5); err != nil {
			t.Fatalf("CheckContext on satisfied level = %v", err)
		}
	})
}

func TestCheckContextAlreadyCancelled(t *testing.T) {
	// A satisfied level beats a cancelled context: the pre-cancelled
	// context only matters for levels the value does not yet satisfy.
	// There the call registers nothing — no suspend, no live level, no
	// raised sharded gate — so Reset succeeds right after it.
	forEachImpl(t, func(t *testing.T, c Interface) {
		c.Increment(5)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := c.CheckContext(ctx, 5); err != nil {
			t.Fatalf("CheckContext on satisfied level with pre-cancelled ctx = %v, want nil", err)
		}
		p := c.(StatsProvider)
		before := p.Stats()
		if err := c.CheckContext(ctx, 6); err != context.Canceled {
			t.Fatalf("CheckContext on unsatisfied level with pre-cancelled ctx = %v, want Canceled", err)
		}
		if after := p.Stats(); after.Suspends != before.Suspends || after.PeakLevels != before.PeakLevels {
			t.Errorf("cancelled CheckContext moved Suspends %d -> %d, PeakLevels %d -> %d; want both unchanged",
				before.Suspends, after.Suspends, before.PeakLevels, after.PeakLevels)
		}
		if sc, ok := c.(*ShardedCounter); ok {
			if g := sc.gate.Load(); g != 0 {
				t.Errorf("gate = %d after a cancelled CheckContext, want 0", g)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Reset after a cancelled CheckContext panicked: %v", r)
				}
			}()
			c.Reset()
		}()
	})
}

func TestCheckContextBackgroundBehavesLikeCheck(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		errc := make(chan error, 1)
		go func() { errc <- c.CheckContext(context.Background(), 2) }()
		time.Sleep(10 * time.Millisecond)
		c.Increment(2)
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("CheckContext(Background) = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("CheckContext(Background) never returned")
		}
	})
}

func TestCancelOneWaiterLeavesOthersSuspended(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan error, 1)
		var passed atomic.Bool
		stayed := make(chan struct{})
		go func() { cancelled <- c.CheckContext(ctx, 7) }()
		go func() {
			c.Check(7)
			passed.Store(true)
			close(stayed)
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		if err := <-cancelled; err != context.Canceled {
			t.Fatalf("cancelled waiter got %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		if passed.Load() {
			t.Fatal("uncancelled waiter passed at value 0")
		}
		c.Increment(7)
		select {
		case <-stayed:
		case <-time.After(5 * time.Second):
			t.Fatal("surviving waiter never released")
		}
	})
}

func TestWaitTimeout(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		if core := c; core.Value() != 0 {
			t.Fatal("fresh counter nonzero")
		}
		if WaitTimeout(c, 1, 30*time.Millisecond) {
			t.Fatal("WaitTimeout reported success at value 0")
		}
		c.Increment(1)
		if !WaitTimeout(c, 1, 5*time.Second) {
			t.Fatal("WaitTimeout failed on satisfied level")
		}
	})
}

// TestNoLostWakeups hammers a counter with concurrent incrementers and
// checkers; every Check(level) with level <= total increments must
// eventually return.
func TestNoLostWakeups(t *testing.T) { runNoLostWakeups(t) }

func runNoLostWakeups(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		const (
			incrementers = 4
			perIncr      = 500
			checkers     = 8
		)
		total := uint64(incrementers * perIncr)
		var wg sync.WaitGroup
		for i := 0; i < checkers; i++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				// Each checker sweeps a stride of levels up to total.
				for lv := seed % 17; lv <= total; lv += 13 {
					c.Check(lv)
				}
				c.Check(total)
			}(uint64(i))
		}
		for i := 0; i < incrementers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perIncr; j++ {
					c.Increment(1)
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("lost wakeup: goroutines still blocked")
		}
		if got := c.Value(); got != total {
			t.Fatalf("final value %d, want %d", got, total)
		}
	})
}

// TestMonotonicValueObservations verifies that Value() never appears to
// decrease while increments race.
func TestMonotonicValueObservations(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c Interface) {
		stop := make(chan struct{})
		var bad atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					v := c.Value()
					if v < last {
						bad.Store(true)
						return
					}
					last = v
				}
			}()
		}
		for i := 0; i < 2000; i++ {
			c.Increment(1)
		}
		close(stop)
		wg.Wait()
		if bad.Load() {
			t.Fatal("observed a decreasing value")
		}
	})
}
