package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the ShardedCounter waiter-gate protocol: where increments
// accumulate with and without waiters, that registration flushes the
// stripes exactly once, and that the striped sum stays monotone and
// overflow-checked. The full conformance/fuzz/cancellation battery also
// covers "sharded" via Registry().

// TestShardedFastPathLeavesValueUnpublished pins the division of labour:
// with no waiters, increments land in shards (published stays zero) but
// Value sees them; the first waiter registration flushes them into the
// published value.
func TestShardedFastPathLeavesValueUnpublished(t *testing.T) {
	c := NewSharded()
	for i := 0; i < 100; i++ {
		c.Increment(3)
	}
	if got := c.published.Load(); got != 0 {
		t.Fatalf("published = %d before any waiter, want 0 (increments must stay striped)", got)
	}
	if got := c.Value(); got != 300 {
		t.Fatalf("Value() = %d, want 300", got)
	}
	c.Check(300) // satisfied, but the lock-free sum path must answer it
	if got := c.published.Load(); got != 0 {
		t.Fatalf("published = %d after satisfied Check, want 0 (no registration, no flush)", got)
	}
	// An unsatisfied Check registers, which must flush the stripes.
	done := make(chan struct{})
	go func() {
		c.Check(301)
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for c.published.Load() != 300 {
		select {
		case <-deadline:
			t.Fatalf("published = %d while a waiter registers, want 300 (flush missing)", c.published.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	c.Increment(1) // gate is up: exact locked path, wakes the waiter
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after a gated increment")
	}
	if got := c.Value(); got != 301 {
		t.Fatalf("Value() = %d, want 301", got)
	}
}

// TestShardedGateDivertsIncrements pins the gate protocol: while a
// waiter is parked, every increment goes through the locked path and is
// visible in published immediately; once the last waiter leaves, the
// fast path resumes and residue accumulates in the stripes again.
func TestShardedGateDivertsIncrements(t *testing.T) {
	c := NewSharded()
	released := make(chan struct{})
	go func() {
		c.Check(50)
		close(released)
	}()
	deadline := time.After(5 * time.Second)
	for c.gate.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never raised the gate")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 49; i++ {
		c.Increment(1)
	}
	if got := c.published.Load(); got != 49 {
		t.Fatalf("published = %d with gate up, want 49 (gated increments must take the locked path)", got)
	}
	c.Increment(1)
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released at level 50")
	}
	// The waiter's departure drops the gate; fast-path increments stripe
	// again. Poll: the leave happens after the waiter's Check returns
	// only once it reacquires the engine mutex, so give it a moment.
	for c.gate.Load() != 0 {
		select {
		case <-deadline:
			t.Fatal("gate never dropped after the last waiter left")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	before := c.published.Load()
	c.Increment(7)
	if got := c.published.Load(); got != before {
		t.Fatalf("published moved %d -> %d on a gate-down increment, want striped fast path", before, got)
	}
	if got := c.Value(); got != 57 {
		t.Fatalf("Value() = %d, want 57", got)
	}
}

// TestShardedValueMonotoneAcrossFlushes races lock-free Value readers
// against the flush machinery (waiters registering and cancelling, which
// flush the stripes) and concurrent increments: no reader may ever
// observe the value decrease. Exercises the seqlock under -race.
func TestShardedValueMonotoneAcrossFlushes(t *testing.T) {
	c := NewSharded()
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
	// Flush churn: short-lived waiters at unreachable levels register
	// (flush) and cancel.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			WaitTimeout(c, 1<<40, 50*time.Microsecond)
		}
	}()
	for i := 0; i < 5000; i++ {
		c.Increment(2)
	}
	close(stop)
	wg.Wait()
	if bad.Load() {
		t.Fatal("a reader observed the sharded value decrease across a flush")
	}
	if got := c.Value(); got != 10000 {
		t.Fatalf("final value %d, want 10000", got)
	}
}

// TestShardedIncrementRacingRegistration hammers the Dekker-style
// recheck: increments that satisfy a waiter's level race against the
// waiter's registration. Whatever the interleaving, the waiter must wake
// — an increment may never be stranded in a stripe the flush missed.
func TestShardedIncrementRacingRegistration(t *testing.T) {
	for round := 0; round < 200; round++ {
		c := NewSharded()
		done := make(chan struct{})
		go func() {
			c.Check(1)
			close(done)
		}()
		c.Increment(1)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: waiter stranded — increment lost between stripe and flush", round)
		}
	}
}

// TestShardedCrossShardOverflowCaughtAtFlush pins the documented
// overflow story for a wrap that no single Increment sees. The published
// value sits at overflowWatermark, the highest value that keeps the fast
// path open, and three shard cells each hold residue just under the cell
// cap: each cell's CAS admits its own, and together they pass the uint64
// range. The next sum (Value, the Check fast path) must panic in
// checkedAdd rather than wrap, and so must the flush an Increment too
// large for a cell takes on the locked path. The flush's panic must
// leave the counter usable, as counterd, which recovers it, needs: on
// its own goroutine under a deadline, Value panics again instead of
// spinning on an odd seqlock, Reset completes instead of waiting on a
// held mutex, and Increment(1) then reads back 1. (A wrap that a single
// Increment sees panics on the locked path; the conformance
// TestIncrementOverflowPanics covers that via the registry.)
func TestShardedCrossShardOverflowCaughtAtFlush(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // four shard cells: three carry the wrap
	defer runtime.GOMAXPROCS(prev)
	c := NewSharded()
	c.Increment(overflowWatermark) // too large for a cell: published by the locked path
	if c.gate.Load() != 0 {
		t.Fatal("fast path closed at overflowWatermark")
	}
	cells := c.cells()
	if len(cells) != 4 {
		t.Fatalf("%d shard cells, want 4", len(cells))
	}
	for i := 0; i < 3; i++ {
		cells[i].v.Store((cellResidueCap-1)<<cellCountBits | 1)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s past the uint64 brim did not panic", what)
			}
		}()
		f()
	}
	mustPanic("summing", func() { c.Value() })
	mustPanic("flushing", func() { c.Increment(cellResidueCap) })

	done := make(chan string, 1)
	go func() {
		defer close(done)
		panicked := func(f func()) (p bool) {
			defer func() { p = recover() != nil }()
			f()
			return false
		}
		if !panicked(func() { c.Value() }) {
			done <- "Value after the flush's panic did not panic"
			return
		}
		c.Reset()
		c.Increment(1)
		if v := c.Value(); v != 1 {
			done <- fmt.Sprintf("Increment(1) after Reset reads %d, want 1", v)
		}
	}()
	select {
	case msg, failed := <-done:
		if failed {
			t.Fatal(msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the counter hung after the flush's overflow panic (held mutex or odd seqlock)")
	}
}

// TestShardedZeroValueReady: the zero value (no constructor, stripes
// unallocated) must behave like a fresh counter on every path.
func TestShardedZeroValueReady(t *testing.T) {
	var c ShardedCounter
	c.Check(0)
	if got := c.Value(); got != 0 {
		t.Fatalf("zero value Value() = %d", got)
	}
	c.Increment(5)
	c.Check(5)
	if err := c.CheckContext(context.Background(), 3); err != nil {
		t.Fatalf("CheckContext = %v", err)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("Value() after Reset = %d", got)
	}
}

// gateHook is a Hook owner that signals its fire on a buffered channel.
type gateHook struct {
	Hook
	fired chan struct{}
}

func (h *gateHook) Fire() { h.fired <- struct{}{} }

// TestShardedGateRegistrationRace races a registration against the
// increment that satisfies it, round after round on one counter: a
// CheckContext under a timeout, or in alternate rounds an armed hook,
// at the next level, against an Increment(1) from another goroutine.
// Every wait must return and every armed hook fire, and the gate must
// read 0 at the end. The branch most likely to miscount the gate is a
// stripe registration that satisfies itself inside its registration
// window (stripedList.register): a gate lowered twice there reads below
// zero, the next registration's raise leaves it at 0 with a waiter
// parked, and a fast-path increment then strands that waiter.
func TestShardedGateRegistrationRace(t *testing.T) {
	const rounds = 100000
	c := NewSharded()
	h := &gateHook{fired: make(chan struct{}, 1)}
	h.Bind(h)
	// The incrementer spins on next so its Increment starts while the
	// round's registration is in flight, staggered by a few loads so
	// the rounds sweep the registration window.
	var next, done atomic.Int64
	go func() {
		for r := int64(1); r <= rounds; r++ {
			for next.Load() < r {
				runtime.Gosched()
			}
			for i := r % 16; i > 0; i-- {
				next.Load()
			}
			c.Increment(1)
			done.Store(r)
		}
	}()
	defer next.Store(rounds) // after a failure, let the incrementer run out
	for r := int64(1); r <= rounds; r++ {
		level := uint64(r)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		next.Store(r)
		if r%2 == 0 {
			if err := c.CheckContext(ctx, level); err != nil {
				t.Fatalf("round %d: CheckContext(%d) = %v: the waiter was stranded", r, level, err)
			}
		} else if c.ArmHook(level, &h.Hook) {
			select {
			case <-h.fired:
			case <-ctx.Done():
				t.Fatalf("round %d: the hook armed at %d never fired", r, level)
			}
		}
		cancel()
		for done.Load() < r {
			runtime.Gosched()
		}
	}
	if g := c.gate.Load(); g != 0 {
		t.Fatalf("gate = %d after every wait returned or fired, want 0", g)
	}
}

// TestShardedUncontendedFootprint pins lazy striping: an uncontended
// counter taken through NewSharded, Increment, a satisfied Check and
// Watermark holds the same bytes at every GOMAXPROCS, and under 512 B
// (a striped one holds 0.7 KB at GOMAXPROCS 1 and 26 KB at 64). Each
// size is the heap delta over many counters; raising GOMAXPROCS starts
// no threads, and the collector stays off while it is raised.
func TestShardedUncontendedFootprint(t *testing.T) {
	const n = 4096
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCounter := func(procs int) int64 {
		// Resizing to procs once first allocates the runtime's per-P
		// state, which stays for later resizes, outside the delta.
		runtime.GOMAXPROCS(procs)
		runtime.GOMAXPROCS(prev)
		cs := make([]*ShardedCounter, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runtime.GOMAXPROCS(procs)
		for i := range cs {
			c := NewSharded()
			c.Increment(1)
			c.Check(1)
			c.Watermark()
			cs[i] = c
		}
		runtime.GOMAXPROCS(prev)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(cs)
		return (int64(after.HeapAlloc) - int64(before.HeapAlloc) + n/2) / n
	}
	// A shard or stats cell is 128 B, so the tolerance for stray
	// allocations elsewhere in the process cannot hide one.
	const slack = 16
	base := perCounter(1)
	for _, procs := range []int{1, 2, 8, 64} {
		b := perCounter(procs)
		t.Logf("GOMAXPROCS %d: %d B per counter", procs, b)
		if b >= 512 {
			t.Errorf("GOMAXPROCS %d: an uncontended counter holds %d B, want under 512", procs, b)
		}
		if b > base+slack || b < base-slack {
			t.Errorf("GOMAXPROCS %d: an uncontended counter holds %d B, %d B at GOMAXPROCS 1: its size must not grow with the procs", procs, b, base)
		}
	}
}

// TestShardedContendedIncrementsStripe: goroutines that hammer one
// counter fail a CAS on its base and stripe it, and Value and
// Stats().Increments stay exact across the switch.
func TestShardedContendedIncrementsStripe(t *testing.T) {
	withGOMAXPROCS(t, 4)
	const workers, atLeast = 4, 10000
	c := NewSharded()
	deadline := time.Now().Add(10 * time.Second)
	var total atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n uint64
			for n < atLeast || c.shards.Load() == nil && time.Now().Before(deadline) {
				c.Increment(1)
				n++
			}
			total.Add(n)
		}()
	}
	wg.Wait()
	if c.shards.Load() == nil {
		t.Fatalf("%d increments from %d goroutines never striped the counter", total.Load(), workers)
	}
	if v := c.Value(); v != total.Load() {
		t.Fatalf("Value() = %d, want %d", v, total.Load())
	}
	if s := c.Stats(); s.Increments != total.Load() {
		t.Fatalf("Stats().Increments = %d, want %d", s.Increments, total.Load())
	}
}

// TestShardedStripeTransitionRace races the switch from base to stripes
// against enroll's gate raise and flush, on a fresh counter each round:
// incrementers contend on the base while waiters park Checks at levels
// the total reaches and a hook arms above the total and cancels, over
// and over. Every waiter must wake, the value must be exact, the
// fast-path and locked increments must add up to Increments, and the
// gate must read 0 once everyone has left.
func TestShardedStripeTransitionRace(t *testing.T) {
	withGOMAXPROCS(t, 4)
	const rounds, incrementers, perIncrementer, waiters = 50, 3, 2000, 3
	const total = incrementers * perIncrementer
	h := &gateHook{fired: make(chan struct{}, 1)}
	h.Bind(h)
	striped := 0
	for r := 0; r < rounds; r++ {
		c := NewSharded()
		start, stop := make(chan struct{}), make(chan struct{})
		var incs sync.WaitGroup
		for i := 0; i < incrementers; i++ {
			incs.Add(1)
			go func() {
				defer incs.Done()
				<-start
				for j := 0; j < perIncrementer; j++ {
					c.Increment(1)
				}
			}()
		}
		woke := make(chan struct{}, waiters)
		for i := 1; i <= waiters; i++ {
			level := uint64(total * i / waiters)
			go func() {
				<-start
				// Park once the increments are under way, while they may
				// still be on the base.
				for c.Watermark() < level/8 {
					runtime.Gosched()
				}
				c.Check(level)
				woke <- struct{}{}
			}()
		}
		hookDone := make(chan struct{})
		go func() {
			defer close(hookDone)
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.ArmHook(total+1, &h.Hook) && !h.Cancel() {
					t.Errorf("round %d: the hook armed above the total could not be cancelled", r)
					return
				}
			}
		}()
		close(start)
		incs.Wait()
		for i := 0; i < waiters; i++ {
			select {
			case <-woke:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: a waiter stayed parked with the value at %d", r, c.Value())
			}
		}
		close(stop)
		<-hookDone
		if c.shards.Load() != nil {
			striped++
		}
		if v := c.Value(); v != total {
			t.Fatalf("round %d: Value() = %d, want %d", r, v, total)
		}
		s := c.Stats()
		c.wl.lock()
		locked := c.wl.stats.increments
		c.wl.unlock()
		if s.Increments != total || s.FastPathIncrements+locked != s.Increments {
			t.Fatalf("round %d: Increments = %d (fast path %d, locked %d), want %d", r, s.Increments, s.FastPathIncrements, locked, total)
		}
		if g := c.gate.Load(); g != 0 {
			t.Fatalf("round %d: gate = %d after every waiter and the hook left, want 0", r, g)
		}
	}
	t.Logf("%d of %d rounds striped", striped, rounds)
}
