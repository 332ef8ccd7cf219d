package core

import (
	"sync"
	"testing"
	"time"
)

// These tests verify the section 7 cost claims (experiment E10): storage
// and wake work are proportional to the number of *distinct levels* with
// waiters, not to the total number of waiting goroutines.

// spawnWaiters suspends `waiters` goroutines spread evenly over `levels`
// distinct levels (1..levels) and returns after they are all suspended,
// along with a release function.
func spawnWaiters(t *testing.T, c Interface, waiters, levels int) (release func(), wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		lv := uint64(i%levels) + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			c.Check(lv)
		}()
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	// Suspension happens just after the started signal; give the
	// scheduler a moment so the structure is quiescent.
	time.Sleep(50 * time.Millisecond)
	return func() { c.Increment(uint64(levels)) }, wg.Wait
}

func TestPeakNodesProportionalToLevels(t *testing.T) {
	const waiters = 256
	for _, levels := range []int{1, 4, 16, 64} {
		c := New()
		release, wait := spawnWaiters(t, c, waiters, levels)
		snap := c.Inspect()
		if got := len(snap.Nodes); got != levels {
			t.Errorf("levels=%d: %d live nodes with %d waiters, want exactly %d",
				levels, got, waiters, levels)
		}
		release()
		wait()
		if st := c.Stats(); st.PeakLevels != levels {
			t.Errorf("levels=%d: PeakLevels=%d, want %d", levels, st.PeakLevels, levels)
		}
	}
}

func TestBroadcastsProportionalToSatisfiedLevels(t *testing.T) {
	const waiters = 128
	for _, levels := range []int{1, 8, 32} {
		c := New()
		release, wait := spawnWaiters(t, c, waiters, levels)
		release()
		wait()
		if st := c.Stats(); st.Broadcasts != uint64(levels) {
			t.Errorf("levels=%d: Broadcasts=%d, want %d (one per satisfied level)",
				levels, st.Broadcasts, levels)
		}
	}
}

// TestNaiveBaselineWakesProportionalToWaiters documents the contrast: the
// naive single-condvar design wakes every waiter on every increment, so
// with W waiters and I increments before satisfaction its wake count is
// Ω(W), growing with waiters even when only one level is in play.
func TestNaiveBaselineWakesProportionalToWaiters(t *testing.T) {
	const waiters = 64
	c := NewBroadcast()
	var wg sync.WaitGroup
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			c.Check(10)
		}()
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	time.Sleep(50 * time.Millisecond)
	// Nine unsatisfying increments, then the satisfying one. The pause
	// between increments lets the woken waiters actually run their
	// re-check before the next broadcast (back-to-back increments would
	// coalesce into a single wake per waiter).
	for i := 0; i < 10; i++ {
		c.Increment(1)
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	// Every increment broadcast to all waiters; even discounting
	// scheduling slop the wake count must be much larger than the
	// number of waiters (the per-level designs would do 64 wakes total).
	if w := c.Wakes(); w < uint64(waiters)*2 {
		t.Errorf("naive baseline wakes=%d; expected thundering herd >> %d", w, waiters)
	}
}

// TestHeapPeakLevels confirms the heap ablation tracks distinct levels the
// same way the reference design does.
func TestHeapPeakLevels(t *testing.T) {
	const waiters = 128
	const levels = 16
	c := NewHeap()
	release, wait := spawnWaiters(t, c, waiters, levels)
	if got := c.Stats().PeakLevels; got != levels {
		t.Errorf("PeakLevels=%d, want %d", got, levels)
	}
	release()
	wait()
}

// TestChanLiveLevels confirms the channel implementation allocates one
// gate per distinct level.
func TestChanLiveLevels(t *testing.T) {
	const waiters = 128
	const levels = 16
	c := NewChan()
	release, wait := spawnWaiters(t, c, waiters, levels)
	if got := c.LiveLevels(); got != levels {
		t.Errorf("LiveLevels=%d, want %d", got, levels)
	}
	release()
	wait()
	if got := c.LiveLevels(); got != 0 {
		t.Errorf("LiveLevels after release=%d, want 0", got)
	}
}

// TestStatsImmediateVsSuspend verifies the stats split between fast-path
// and suspending checks.
func TestStatsImmediateVsSuspend(t *testing.T) {
	c := New()
	c.Increment(5)
	c.Check(3)
	c.Check(5)
	done := make(chan struct{})
	go func() {
		c.Check(6)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	c.Increment(1)
	<-done
	st := c.Stats()
	if st.ImmediateChecks != 2 {
		t.Errorf("ImmediateChecks=%d, want 2", st.ImmediateChecks)
	}
	if st.Suspends != 1 {
		t.Errorf("Suspends=%d, want 1", st.Suspends)
	}
	if st.Increments != 2 {
		t.Errorf("Increments=%d, want 2", st.Increments)
	}
}
