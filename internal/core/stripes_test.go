package core

import (
	"context"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Tests for the striped level index (stripes.go) and the lock-free
// satisfied fast path: the cache-line audit behind the padding comments,
// the zero-mutex guarantee E25 runtime-asserts, and the cross-stripe
// register-vs-increment race the Dekker handshake exists to win.

// TestCacheLinePadding is the audit the padding comments point at: every
// striped structure's element must be a whole number of cache lines so
// array neighbours never share one, and two lines (128 bytes) wherever a
// comment promises clearance from the adjacent-line prefetcher. Checked
// with unsafe arithmetic rather than trusted, because adding a field to
// any of these structs silently re-couples the stripes.
func TestCacheLinePadding(t *testing.T) {
	const line = 64
	if s := unsafe.Sizeof(shardCell{}); s != 2*line {
		t.Errorf("shardCell size = %d, want %d (two cache lines)", s, 2*line)
	}
	if s := unsafe.Sizeof(fcSlot{}); s != 2*line {
		t.Errorf("fcSlot size = %d, want %d (two cache lines)", s, 2*line)
	}
	if s := unsafe.Sizeof(paddedUint64{}); s != 2*line {
		t.Errorf("paddedUint64 size = %d, want %d (two cache lines)", s, 2*line)
	}

	// The stripe header: total size a multiple of the line (so the array
	// stride preserves separation), and at least one full line of
	// trailing pad after min — the last hot field — so one stripe's
	// mutex/minimum traffic never lands on the next stripe's line.
	var st stripe
	ss := unsafe.Sizeof(st)
	if ss%line != 0 {
		t.Errorf("stripe size = %d, want a multiple of %d", ss, line)
	}
	hotEnd := unsafe.Offsetof(st.min) + unsafe.Sizeof(st.min)
	if ss-hotEnd < line {
		t.Errorf("stripe trailing pad = %d bytes after min, want >= %d", ss-hotEnd, line)
	}
	// The fields the lock-free paths load atomically must be 8-aligned
	// (true on every 64-bit layout, but the audit is cheap).
	for name, off := range map[string]uintptr{
		"stripe.min":  unsafe.Offsetof(st.min),
		"shardCell.v": unsafe.Offsetof(shardCell{}.v),
		"fcSlot.v":    unsafe.Offsetof(fcSlot{}.v),
		"padded.v":    unsafe.Offsetof(paddedUint64{}.v),
	} {
		if off%8 != 0 {
			t.Errorf("%s offset = %d, want 8-byte aligned", name, off)
		}
	}
}

// TestNewAtomicStripesSizing pins the constructor's rounding contract:
// the requested stripe count is rounded up to a power of two, and n=1
// really is a single stripe — the single-index engine E25 measures the
// striped default against.
func TestNewAtomicStripesSizing(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16},
	} {
		c := NewAtomicStripes(tc.n)
		if got := len(*c.idx.stripes.Load()); got != tc.want {
			t.Errorf("NewAtomicStripes(%d): %d stripes, want %d", tc.n, got, tc.want)
		}
	}
	// And it is still a working counter.
	c := NewAtomicStripes(1)
	done := make(chan struct{})
	go func() { c.Check(3); close(done) }()
	c.Increment(3)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("single-stripe counter lost a wake")
	}
}

// TestSatisfiedCheckZeroLocks is the in-suite version of E25's headline
// assertion: once a level is satisfied, Check, CheckContext (live or
// expired context), zero-timeout WaitTimeout, and Value acquire zero
// mutexes — engine or stripe — on every registry implementation. The
// subtests deliberately do not run in parallel: the lock-counting probe
// is global, and a sibling disabling it early would hollow the assertion
// out.
func TestSatisfiedCheckZeroLocks(t *testing.T) {
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			c := NewImpl(impl)
			lc := c.(LockCounter)
			c.Increment(5)
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			SetLockCounting(true)
			defer SetLockCounting(false)
			base := lc.LockAcquires()
			for i := 0; i < 200; i++ {
				c.Check(3)
				if err := c.CheckContext(context.Background(), 5); err != nil {
					t.Fatalf("satisfied CheckContext = %v", err)
				}
				if err := c.CheckContext(expired, 4); err != nil {
					t.Fatalf("satisfied level lost to expired context: %v", err)
				}
				if !WaitTimeout(c, 1, 0) {
					t.Fatal("zero-timeout WaitTimeout false on a satisfied level")
				}
				if v := c.Value(); v != 5 {
					t.Fatalf("Value = %d, want 5", v)
				}
			}
			if got := lc.LockAcquires(); got != base {
				t.Fatalf("satisfied checks acquired %d mutexes, want 0", got-base)
			}
		})
	}
}

// TestCheckIncrementRaceAcrossStripes is the lost-wake regression test
// for the striped index: a Check registering concurrently with the very
// Increment that satisfies it must never be stranded, whichever stripe
// the level hashes to. Each iteration races a fresh registration against
// its satisfying increment at a level that cycles through more stripes
// than any GOMAXPROCS on this host allocates, so every stripe boundary
// (and the watermark/minimum handshake on it) gets hit.
func TestCheckIncrementRaceAcrossStripes(t *testing.T) { runCheckIncrementRaceAcrossStripes(t) }

func runCheckIncrementRaceAcrossStripes(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	for _, impl := range []Impl{ImplAtomic, ImplSpin, ImplSharded, ImplFC} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < iters; i++ {
				c := NewImpl(impl)
				level := uint64(i%128) + 1
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); c.Check(level) }()
				go func() { defer wg.Done(); c.Increment(level) }()
				raceDone := make(chan struct{})
				go func() { wg.Wait(); close(raceDone) }()
				select {
				case <-raceDone:
				case <-time.After(30 * time.Second):
					t.Fatalf("iteration %d: Check(%d) lost its registration/increment race", i, level)
				}
				if got := c.Value(); got != level {
					t.Fatalf("iteration %d: value = %d, want %d", i, got, level)
				}
			}
		})
	}
}

// TestStripeMinTracksHead is a white-box check that each stripe's atomic
// minimum is exact: armed sentinels at scattered levels must leave every
// stripe's min equal to its list head, and cancelling them all must
// return every stripe to minArmedNone — the state a non-waking increment
// relies on to take zero stripe locks.
func TestStripeMinTracksHead(t *testing.T) {
	c := NewAtomic()
	var cancels []func() bool
	for lv := uint64(1); lv <= 64; lv++ {
		cancel, armed := Sentinel(c, lv*977+5, func() {})
		if !armed {
			t.Fatalf("sentinel at %d not armed on a zero counter", lv*977+5)
		}
		cancels = append(cancels, cancel)
	}
	stripes := *c.idx.stripes.Load()
	for i := range stripes {
		s := &stripes[i]
		s.mu.Lock()
		head := s.list.head
		min := s.min.Load()
		s.mu.Unlock()
		switch {
		case head == nil && min != minArmedNone:
			t.Errorf("stripe %d: empty but min = %d, want minArmedNone", i, min)
		case head != nil && min != head.level:
			t.Errorf("stripe %d: min = %d, head level = %d", i, min, head.level)
		}
	}
	for _, cancel := range cancels {
		if !cancel() {
			t.Error("cancel reported already-fired on a never-satisfied level")
		}
	}
	for i := range stripes {
		s := &stripes[i]
		s.mu.Lock()
		head, min := s.list.head, s.min.Load()
		s.mu.Unlock()
		if head != nil || min != minArmedNone {
			t.Errorf("stripe %d after cancel-all: head=%v min=%d, want empty/minArmedNone", i, head, min)
		}
	}
	if !c.idx.empty() {
		t.Error("index not empty after every sentinel cancelled")
	}
	c.Reset() // must not panic: nothing armed
}
