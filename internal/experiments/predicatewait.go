package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/harness"
	"monotonic/internal/predicate"
)

// quorumStorage parks N waiters on one k-of-m quorum condition, reads
// the total parked nodes across the member counters (the sum of their
// PeakLevels — every sentinel is one per-level node, and nothing else
// touches the members), then completes the quorum and times the release
// fan-out from the k-th arrival to the last waiter resumed.
//
// The storage bound is asserted at run time, not just reported: more
// than one node per watched counter means the predicate tier is paying
// per waiter, which is exactly the regression E24 exists to catch.
func quorumStorage(m, k, waiters int) (nodes int, release time.Duration) {
	members := make([]*core.Counter, m)
	cs := make([]core.Sentineler, m)
	levels := make([]uint64, m)
	for i := range members {
		members[i] = core.New()
		cs[i] = members[i]
		levels[i] = 1
	}
	cond := predicate.NewCond(predicate.Thresholds(levels, k), cs...)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cond.Wait(context.Background()) // background ctx: never errs
		}()
	}
	settle(waiters)
	for _, mem := range members {
		nodes += mem.Stats().PeakLevels
	}
	if nodes > m {
		panic(fmt.Sprintf("experiments: E24 storage bound violated: %d parked nodes across %d watched counters with %d waiters (want <= %d)",
			nodes, m, waiters, m))
	}
	for i := 0; i < k-1; i++ {
		members[i].Increment(1)
	}
	settle(1) // let the k-1 fires re-evaluate before the timed arrival
	start := time.Now()
	members[k-1].Increment(1)
	wg.Wait()
	return nodes, time.Since(start)
}

// nonFlipping parks one predicate waiter far from its target, drives
// sub-frontier increments at it, and returns the sentinel fire count —
// asserted to be zero at run time: an increment that cannot flip the
// predicate must wake no predicate machinery at all.
func nonFlipping(increments int) (fires uint64) {
	a, b := core.New(), core.New()
	const target = 1_000_000 // frontiers sit at 500_000 each
	cond := predicate.NewCond(predicate.SumAtLeast(target), a, b)
	done := make(chan struct{})
	go func() {
		_ = cond.Wait(context.Background())
		close(done)
	}()
	settle(1)
	for i := 0; i < increments; i++ {
		a.Increment(1)
	}
	fires = cond.Stats().Fires
	if fires != 0 {
		panic(fmt.Sprintf("experiments: E24 zero-wake bound violated: %d sentinel fires from %d sub-frontier increments (want 0)",
			fires, increments))
	}
	a.Increment(target) // release the waiter before returning
	<-done
	return fires
}

// joinFanout parks N waiters on a two-counter sum join, advances one
// counter to just below the target, and times the flip: from the other
// counter's one-unit increment to the last waiter resumed. Returns the
// release latency and the total sentinel registrations (which must
// track frontier moves, not N).
func joinFanout(waiters int) (release time.Duration, arms uint64) {
	a, b := core.New(), core.New()
	const target = 1000
	cond := predicate.NewCond(predicate.SumAtLeast(target), a, b)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cond.Wait(context.Background())
		}()
	}
	settle(waiters)
	a.Increment(target - 1)
	settle(1) // let the fire re-park sentinels at the new frontiers
	start := time.Now()
	b.Increment(1)
	wg.Wait()
	return time.Since(start), cond.Stats().Arms
}

// E24: predicate waits — the storage and no-wake bounds one tier up.
// The paper's section 7 argument is that N waiters on one level share
// one node; the predicate layer lifts it: N waiters on one monotone
// predicate over m counters share one *sentinel* node per counter.
func init() {
	register(Experiment{
		ID:    "E24",
		Title: "Predicate waits: k-of-n quorum storage and two-counter join fan-out",
		Paper: "Section 7's storage argument prices N waiters on one level at one node; section 8 " +
			"derives composite mechanisms from counters. A predicate wait (counter/wait) extends " +
			"both: N goroutines waiting on one monotone predicate over m counters — a quorum, a " +
			"sum join — should cost O(m) parked sentinel nodes shared by all N, and an increment " +
			"that cannot flip the predicate should wake no predicate machinery at all.",
		Notes: "Both bounds are asserted at run time (the experiment panics on violation, and the " +
			"quick suite runs it in CI). Parked nodes are measured as the sum of the members' " +
			"PeakLevels — a sentinel is an ordinary per-level waitlist node — and stay at m for " +
			"every waiter count up to 10^4, three orders of magnitude below per-waiter parking. " +
			"Sentinel fires stay at zero across 10^4 sub-frontier increments: the frontier math " +
			"(gap-sharing by pigeonhole for sums, exact thresholds for quorums) arms sentinels " +
			"only where a flip is reachable. Join release latency tracks the E20 fan-out cost — " +
			"one channel close releasing N parked goroutines — plus one predicate evaluation.",
		Run: func(cfg Config) []*harness.Table {
			waiterNs := []int{10, 100, 1000, 10000}
			incs := 10000
			if cfg.Quick {
				waiterNs = []int{10, 100, 1000}
				incs = 1000
			}

			const m, k = 8, 5
			t1 := harness.NewTable(
				fmt.Sprintf("Quorum wait (%d of %d members at threshold): parked nodes vs waiters", k, m),
				"waiters", "watched counters", "parked nodes", "bound <= m", "release (k-th arrival -> last resumed)")
			for _, n := range waiterNs {
				nodes, release := quorumStorage(m, k, n)
				verdict := "MATCH"
				if nodes > m {
					verdict = "MISMATCH" // unreachable: quorumStorage panics first
				}
				t1.Add(harness.I(n), harness.I(m), harness.I(nodes), verdict, harness.Dur(release))
			}

			t2 := harness.NewTable("Non-flipping increments wake nothing",
				"sub-frontier increments", "sentinel fires", "verdict")
			fires := nonFlipping(incs)
			verdict := "MATCH"
			if fires != 0 {
				verdict = "MISMATCH" // unreachable: nonFlipping panics first
			}
			t2.Add(harness.I(incs), harness.U(fires), verdict)

			t3 := harness.NewTable("Two-counter sum join: release fan-out",
				"waiters", "sentinel arms", "release (flip increment -> last resumed)")
			for _, n := range waiterNs {
				release, arms := joinFanout(n)
				t3.Add(harness.I(n), harness.U(arms), harness.Dur(release))
			}

			return []*harness.Table{t1, t2, t3}
		},
	})
}
