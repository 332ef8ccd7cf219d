package wait_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"monotonic/counter"
	"monotonic/counter/wait"
)

// bare hides the native watermark/sentinel surface, forcing the
// goroutine-backed polled fallback.
type bare struct{ c counter.Interface }

func (b bare) Increment(amount uint64) { b.c.Increment(amount) }
func (b bare) Check(level uint64)      { b.c.Check(level) }
func (b bare) Reset()                  { b.c.Reset() }
func (b bare) WaitTimeout(level uint64, d time.Duration) bool {
	return b.c.WaitTimeout(level, d)
}
func (b bare) CheckContext(ctx context.Context, level uint64) error {
	return b.c.CheckContext(ctx, level)
}

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

// wrap returns the counter as-is or stripped to the fallback path.
func wrap(c counter.Interface, fallback bool) counter.Interface {
	if fallback {
		return bare{c}
	}
	return c
}

func TestSumAtLeast(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		name := "native"
		if fallback {
			name = "polled-fallback"
		}
		t.Run(name, func(t *testing.T) {
			a, b := counter.New(), counter.New()
			cond := wait.Sum(wrap(a, fallback), wrap(b, fallback)).AtLeast(10)
			errc := make(chan error, 1)
			go func() { errc <- counter.WaitFor(context.Background(), cond) }()
			mustBlock(t, errc)
			a.Increment(3)
			b.Increment(7) // split advance: neither counter reaches 10 alone
			waitNil(t, errc)
			if !cond.Holds() {
				t.Fatal("Holds false after release")
			}
		})
	}
}

func TestMinAtLeast(t *testing.T) {
	a, b := counter.New(), counter.New()
	cond := wait.Min(a, b).AtLeast(5)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	a.Increment(100)
	mustBlock(t, errc) // min(100, 0) = 0
	b.Increment(5)
	waitNil(t, errc)
}

func TestAtLeastSingle(t *testing.T) {
	c := counter.New()
	cond := wait.AtLeast(c, 3)
	if cond.WaitTimeout(0) {
		t.Fatal("zero-timeout WaitTimeout true on a zero counter")
	}
	c.Increment(3)
	if !cond.WaitTimeout(0) {
		t.Fatal("zero-timeout WaitTimeout false with the level reached")
	}
	if !cond.WaitTimeout(-time.Second) {
		t.Fatal("negative-timeout WaitTimeout false on a satisfied Cond")
	}
}

func TestKOfNQuorum(t *testing.T) {
	const n, k = 5, 3
	members := make([]counter.Interface, n)
	for i := range members {
		members[i] = counter.New()
	}
	cond := wait.KOfN(members, k, 2)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	members[0].Increment(2)
	members[2].Increment(1) // below threshold: must not count
	members[4].Increment(2)
	mustBlock(t, errc)
	members[2].Increment(1) // completes the quorum
	waitNil(t, errc)
}

func TestOpenImplsThroughWait(t *testing.T) {
	for _, impl := range counter.Impls() {
		t.Run(impl, func(t *testing.T) {
			a, err := counter.Open(impl)
			if err != nil {
				t.Fatal(err)
			}
			b, err := counter.Open(impl)
			if err != nil {
				t.Fatal(err)
			}
			cond := wait.Sum(a, b).AtLeast(4)
			errc := make(chan error, 1)
			go func() { errc <- cond.Wait(context.Background()) }()
			a.Increment(2)
			b.Increment(2)
			waitNil(t, errc)
		})
	}
}

func TestCancelledContext(t *testing.T) {
	a := counter.New()
	cond := wait.AtLeast(a, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cond.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait(cancelled) = %v, want Canceled", err)
	}
	// Satisfied beats cancelled.
	a.Increment(100)
	if err := cond.Wait(ctx); err != nil {
		t.Fatalf("Wait(cancelled, satisfied) = %v, want nil", err)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	cond := wait.AtLeast(counter.New(), 1)
	if cond.WaitTimeout(5 * time.Millisecond) {
		t.Fatal("WaitTimeout true with nothing incrementing")
	}
}

func TestFanOutStatsIndependentOfWaiters(t *testing.T) {
	a, b := counter.New(), counter.New()
	cond := wait.Sum(a, b).AtLeast(1000)
	const waiters = 64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cond.Wait(context.Background()); err != nil {
				t.Errorf("Wait = %v", err)
			}
		}()
	}
	a.Increment(999)
	time.Sleep(20 * time.Millisecond)
	b.Increment(1)
	wg.Wait()
	s := cond.Stats()
	if !s.Satisfied || s.Armed != 0 {
		t.Fatalf("Stats = %+v after release", s)
	}
	if s.Arms > 40 {
		t.Fatalf("Arms = %d — scaling with the %d waiters?", s.Arms, waiters)
	}
}

// TestPolledFallbackCancelLeavesNoFire pins the fallback adapter's
// cancel semantics: a cancelled sentinel goroutine never fires, and the
// counter keeps working afterwards.
func TestPolledFallbackCancelLeavesNoFire(t *testing.T) {
	a := counter.New()
	cond := wait.Sum(bare{a}).AtLeast(50)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(ctx) }()
	mustBlock(t, errc)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Wait = %v, want Canceled", err)
	}
	a.Increment(50)
	a.Check(50)
	// A fresh Cond over the same counter sees the satisfied state once a
	// Wait drives a probe (Holds alone reads the fallback watermark,
	// which starts below the true value — see the adapter docs).
	if err := wait.Sum(bare{a}).AtLeast(50).Wait(context.Background()); err != nil {
		t.Fatalf("fresh Cond Wait over the satisfied sum = %v", err)
	}
}

// TestAbandonedCondResetsAtOnce pins the promise that a fully cancelled
// Cond leaves no trace on its counters where a sentinel is a goroutine:
// on the chan design and through the polled fallback, a Wait abandoned
// by its cancelled context has released every level it armed by the
// time it returns, so a Reset right after it works.
func TestAbandonedCondResetsAtOnce(t *testing.T) {
	ch, err := counter.Open("chan")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []counter.Interface{ch, bare{counter.New()}} {
		for i := 0; i < 100; i++ {
			if err := wait.Sum(c).AtLeast(10).Wait(ctx); err != context.Canceled {
				t.Fatalf("%T: Wait(cancelled) = %v, want Canceled", c, err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%T: Reset right after abandoned Cond %d: %v", c, i, r)
					}
				}()
				c.Reset()
			}()
		}
	}
}
