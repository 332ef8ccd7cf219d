package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFCCombinesUnderContention drives concurrent incrementers hard
// enough that some lose the TryLock race and publish through the slots,
// then checks nothing was lost or double-counted: the final value is
// exact, every folded increment is in both Increments and
// FastPathIncrements, and the two tallies agree.
func TestFCCombinesUnderContention(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // make the TryLock race actually contested
	defer runtime.GOMAXPROCS(prev)

	c := NewFC()
	const (
		workers   = 8
		perWorker = 20000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Increment(1)
			}
		}()
	}
	wg.Wait()

	total := uint64(workers * perWorker)
	if got := c.Value(); got != total {
		t.Fatalf("Value() = %d, want %d", got, total)
	}
	s := c.Stats()
	if s.Increments != total {
		t.Fatalf("Increments = %d, want %d (combined increments must still count)", s.Increments, total)
	}
	if s.FastPathIncrements > s.Increments {
		t.Fatalf("FastPathIncrements = %d > Increments = %d", s.FastPathIncrements, s.Increments)
	}
	if s.FastPathIncrements > 0 && s.Flushes == 0 {
		t.Fatalf("FastPathIncrements = %d with Flushes = 0: folded deltas must count drain passes", s.FastPathIncrements)
	}
	t.Logf("combined %d of %d increments in %d drains", s.FastPathIncrements, s.Increments, s.Flushes)
}

// TestFCCombinedIncrementWakesWaiter pins the lost-wakeup hazard of the
// delegation protocol: when an increment is folded by a rival lock
// holder rather than applied by its caller, the fold must still wake
// the waiters the combined total satisfies. A slot is claimed directly
// (simulating a publisher mid-protocol) while a waiter is parked; the
// next lock holder must fold it and release the waiter.
func TestFCCombinedIncrementWakesWaiter(t *testing.T) {
	c := NewFC()
	c.Increment(1) // allocate the slot array (first locked increment)

	released := make(chan struct{})
	go func() {
		c.Check(10)
		close(released)
	}()
	pollStats(t, c, "fc waiter parked", func(s Stats) bool { return s.Suspends == 1 })

	// Publish a delta the way a contended Increment would, without
	// taking the lock ourselves.
	s, token := c.slots.claim(9)
	if s == nil || token == 0 {
		t.Fatal("claim failed with an allocated, empty slot array")
	}
	// Any subsequent lock holder must fold the pending delta before
	// releasing. Check(2) cannot pass the lock-free fast path (value is
	// still 1), so it takes the mutex — and must come back satisfied by
	// the delta it just folded, without ever suspending.
	c.Check(2)
	if st := c.Stats(); st.Suspends != 1 {
		t.Fatalf("Suspends = %d, want 1: the folding Check must not park", st.Suspends)
	}

	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter not released: pending delta was not folded by the next lock holder")
	}
	if got := c.Value(); got != 10 {
		t.Fatalf("Value() = %d, want 10", got)
	}
	if st := c.Stats(); st.FastPathIncrements != 1 {
		t.Fatalf("FastPathIncrements = %d, want 1 (the folded delta)", st.FastPathIncrements)
	}
}

// TestFCIncrementVisibleOnReturn pins the two-phase fold ordering:
// Increment's synchronous contract says that once it returns, Value()
// reflects the caller's delta. A single-pass fold that freed a
// publisher's slot before storing the combined value would let the
// publisher return — and read Value() — while its own delta was still
// in flight. Each worker therefore asserts, immediately after every
// Increment(1), that Value() covers at least its own running total (the
// value is monotonic, so rivals' deltas can only push it higher).
func TestFCIncrementVisibleOnReturn(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	c := NewFC()
	const (
		workers   = 8
		perWorker = 20000
	)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mine := uint64(1); mine <= perWorker; mine++ {
				c.Increment(1)
				if got := c.Value(); got < mine {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		t.Fatal("Increment returned before its delta was visible in Value()")
	}
	if got, want := c.Value(), uint64(workers*perWorker); got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
}

// TestFCOverflowKeepsPendingSlots: when a fold would overflow, the
// combiner must panic with the collected slots still claimed. Freeing
// them first would tell each spinning publisher its increment succeeded
// while the delta was discarded — a silent loss after a recovered
// panic. The pending publisher instead stays unacknowledged and folds
// (and panics) itself when it eventually takes the lock.
func TestFCOverflowKeepsPendingSlots(t *testing.T) {
	c := NewFC()
	c.Increment(^uint64(0) - 10) // near the top; also allocates the slots
	s, token := c.slots.claim(100)
	if s == nil {
		t.Fatal("claim failed with an allocated, empty slot array")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("overflowing fold did not panic")
			}
		}()
		c.Check(^uint64(0)) // locked slow path: folds the pending delta
	}()
	if got := s.v.Load(); got != token {
		t.Fatalf("slot = %#x after overflow panic, want the claim token %#x still published", got, token)
	}
	if got := c.Value(); got != ^uint64(0)-10 {
		t.Fatalf("Value() after recovered overflow = %d, want %d", got, ^uint64(0)-10)
	}
	// Clean up the manual claim so the counter is quiescent again.
	s.v.Store(0)
}

// TestFCLargeAmountFallsBack checks that amounts too large for the
// packed slot word take the blocking locked path and still apply
// exactly, even under contention.
func TestFCLargeAmountFallsBack(t *testing.T) {
	c := NewFC()
	const big = fcAmountCap + 5
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Increment(big)
			for j := 0; j < 1000; j++ {
				c.Increment(1)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), 4*big+4000; got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
}

// TestFCOverflowPanics: the combining path must never silently wrap,
// whether the overflowing delta arrives through the caller's own locked
// add or a fold of published slots.
func TestFCOverflowPanics(t *testing.T) {
	c := NewFC()
	c.Increment(^uint64(0) - 10)
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing increment did not panic")
		}
		// The panic must have released the engine mutex (the server
		// recovers overflow into a wire error and keeps the counter).
		if got := c.Value(); got != ^uint64(0)-10 {
			t.Fatalf("Value() after recovered overflow = %d, want %d", got, ^uint64(0)-10)
		}
	}()
	c.Increment(100)
}

// TestStripeCountCapturedOnce is the regression test for the
// stripe-count capture bug: the shard cells and the striped stats cells
// used to size themselves from runtime.GOMAXPROCS(0) at whichever
// moment each was first touched, so a GOMAXPROCS change between those
// moments produced arrays that disagreed about the stripe space. The
// count must now be captured once per counter; raising and lowering
// GOMAXPROCS mid-run must neither index out of range nor lose counts.
func TestStripeCountCapturedOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, impl := range []Impl{ImplSharded, ImplFC, ImplAtomic} {
		t.Run(string(impl), func(t *testing.T) {
			runtime.GOMAXPROCS(2)
			c := NewImpl(impl)
			var total atomic.Uint64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						c.Increment(1)
						total.Add(1)
						c.Check(1) // exercise the striped fast-check cells too
					}
				}()
			}
			// Thrash the proc count while the stripes are in use: any
			// array sized from a fresh GOMAXPROCS read instead of the
			// captured count would change length under the workers.
			for _, n := range []int{8, 1, 4, 2, 16, 1} {
				runtime.GOMAXPROCS(n)
				time.Sleep(2 * time.Millisecond)
			}
			close(stop)
			wg.Wait()
			if got, want := c.Value(), total.Load(); got != want {
				t.Fatalf("Value() = %d, want %d: counts lost across GOMAXPROCS changes", got, want)
			}
			sp := c.(StatsProvider)
			if s := sp.Stats(); s.Increments != total.Load() {
				t.Fatalf("Increments = %d, want %d", s.Increments, total.Load())
			}
		})
	}
}

// TestFCStatsCellsSizedWithSlots pins FCCounter's capture point the same
// way: allocating the combining slots must co-allocate the fast-check
// stats cells from the one captured stripe count, so the counter's two
// striped structures can never disagree about the stripe space.
func TestFCStatsCellsSizedWithSlots(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(4)
	c := NewFC()
	c.Increment(1) // allocates the combining slots, and with them the stats cells
	runtime.GOMAXPROCS(1)

	slots := c.slots.slots.Load()
	stats := c.fastChecks.cells.Load()
	if slots == nil || stats == nil {
		t.Fatalf("arrays not co-allocated: slots=%v statsCells=%v", slots != nil, stats != nil)
	}
	if len(*slots) != len(*stats) {
		t.Fatalf("combining slots (%d) and stats cells (%d) disagree about the stripe count", len(*slots), len(*stats))
	}
	if len(*slots) != 4 {
		t.Fatalf("stripe count = %d, want the captured 4, not the current GOMAXPROCS", len(*slots))
	}
}

// TestShardedStatsCellsSizedWithShards pins the capture point: after the
// shard array exists, the fast-check stats cells must exist with the
// same length, whatever GOMAXPROCS says now. An uncontended Increment
// stays on the base cell, so the test stripes the counter directly.
func TestShardedStatsCellsSizedWithShards(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(4)
	c := NewSharded()
	c.cells() // stripes: allocates the shard cells, and with them the stats cells
	runtime.GOMAXPROCS(1)

	shards := c.shards.Load()
	stats := c.fastChecks.cells.Load()
	if shards == nil || stats == nil {
		t.Fatalf("arrays not co-allocated: shards=%v statsCells=%v", shards != nil, stats != nil)
	}
	if len(*shards) != len(*stats) {
		t.Fatalf("shard cells (%d) and stats cells (%d) disagree about the stripe count", len(*shards), len(*stats))
	}
	if len(*shards) != 4 {
		t.Fatalf("stripe count = %d, want the captured 4, not the current GOMAXPROCS", len(*shards))
	}
}

// TestFCSetSpinEncoding pins SetSpin's packed encoding, mirroring
// TestSpinSetSpinsEncoding: the zero value means the tuned defaults, any
// negative argument restores them, explicit zeros are honored (park
// immediately), and out-of-range budgets are capped rather than allowed
// to corrupt the packing.
func TestFCSetSpinEncoding(t *testing.T) {
	c := NewFC()
	if a, y := c.spinBudget(); a != fcSpinActive || y != fcSpinYields {
		t.Fatalf("zero-value budget = (%d,%d), want defaults (%d,%d)", a, y, fcSpinActive, fcSpinYields)
	}
	c.SetSpin(0, 0)
	if a, y := c.spinBudget(); a != 0 || y != 0 {
		t.Fatalf("budget after SetSpin(0,0) = (%d,%d), want (0,0)", a, y)
	}
	c.SetSpin(-1, 5)
	if a, y := c.spinBudget(); a != fcSpinActive || y != fcSpinYields {
		t.Fatalf("budget after SetSpin(-1,5) = (%d,%d), want defaults (%d,%d)", a, y, fcSpinActive, fcSpinYields)
	}
	c.SetSpin(7, 3)
	if a, y := c.spinBudget(); a != 7 || y != 3 {
		t.Fatalf("budget after SetSpin(7,3) = (%d,%d), want (7,3)", a, y)
	}
	c.SetSpin(1<<31, 1<<20)
	if a, y := c.spinBudget(); a != 1<<30 || y != 1<<15 {
		t.Fatalf("budget after oversized SetSpin = (%d,%d), want caps (%d,%d)", a, y, 1<<30, 1<<15)
	}
	// A zero budget must still be correct, just eager to park.
	c.SetSpin(0, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.Increment(1) }()
	}
	wg.Wait()
	if got := c.Value(); got != 8 {
		t.Fatalf("value with zero spin budget = %d, want 8", got)
	}
}

// BenchmarkFCSpinTune is the sweep behind the fcSpinActive/fcSpinYields
// defaults: contended increments under a range of publisher spin
// budgets, meant to be run with -cpu 1,2,4 (the E23 notes record the
// numbers). It is not part of the recorded BENCH suites.
func BenchmarkFCSpinTune(b *testing.B) {
	for _, cfg := range []struct{ active, yields int }{
		{0, 0}, {8, 2}, {32, 4}, {128, 8}, {512, 16},
	} {
		b.Run(fmt.Sprintf("active=%d,yields=%d", cfg.active, cfg.yields), func(b *testing.B) {
			c := NewFC()
			c.SetSpin(cfg.active, cfg.yields)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Increment(1)
				}
			})
		})
	}
}
