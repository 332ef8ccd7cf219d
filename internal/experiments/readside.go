package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/harness"
)

// satisfiedZeroLocks drives a batch of already-satisfied operations —
// Check, CheckContext under a live and an expired context, zero-timeout
// WaitTimeout — at one implementation with the engine's lock-counting
// probe enabled. It returns the mutex acquisitions they cost and the
// ImmediateChecks delta they produced, asserting both bounds at run
// time: zero acquisitions (engine and stripe mutexes both), and one
// immediate check counted per operation — the fast path is exact, not
// merely fast.
func satisfiedZeroLocks(impl core.Impl, ops int) (locks, immediate, issued uint64) {
	c := core.NewImpl(impl)
	lc := c.(core.LockCounter)
	sp := c.(core.StatsProvider)
	c.Increment(5)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	before := sp.Stats().ImmediateChecks
	core.SetLockCounting(true)
	defer core.SetLockCounting(false)
	base := lc.LockAcquires()
	for i := 0; i < ops; i++ {
		c.Check(3)
		_ = c.CheckContext(context.Background(), 5)
		_ = c.CheckContext(expired, 4) // satisfied beats cancelled, still lock-free
		core.WaitTimeout(c, 1, 0)
		issued += 4
	}
	locks = lc.LockAcquires() - base
	if locks != 0 {
		panic(fmt.Sprintf("experiments: E25 zero-lock bound violated: %s acquired %d mutexes for %d satisfied checks (want 0)",
			impl, locks, issued))
	}
	immediate = sp.Stats().ImmediateChecks - before
	if immediate != issued {
		panic(fmt.Sprintf("experiments: E25 immediate-check exactness violated: %s counted %d of %d satisfied checks",
			impl, immediate, issued))
	}
	return locks, immediate, issued
}

// registrationThroughput measures Check-registration pressure on one
// level index: workers goroutines each arm and immediately cancel a
// sentinel at a worker-unique never-satisfied level — Check's slow-path
// registration and cancellation drain, without the park. On the
// single-index engine every worker serializes on one mutex; on the
// striped index distinct levels hash to distinct stripes.
func registrationThroughput(c core.Sentineler, workers, opsPer int) float64 {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			level := uint64(1)<<40 + uint64(w+1)<<20
			<-start
			for i := 0; i < opsPer; i++ {
				cancel, armed := core.Sentinel(c, level, func() {})
				if armed {
					cancel()
				}
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return float64(workers*opsPer) / time.Since(t0).Seconds()
}

// pairedRegistrationThroughput takes the best of trials runs on fresh
// counters for each engine, interleaving the two sides trial by trial.
// Best-of (not mean) is the right statistic for an A/B bound on a
// shared host: scheduler noise only ever subtracts. The interleaving
// matters just as much: running one side's trials as a contiguous block
// lets a load burst that spans the block (another test binary under
// `go test ./...`, say) starve that side alone and skew the ratio,
// while alternating exposes both sides to every noise window so best-of
// can discard the same slow intervals from each.
func pairedRegistrationThroughput(workers, opsPer, trials int) (single, striped float64) {
	for i := 0; i < trials; i++ {
		if v := registrationThroughput(core.NewAtomicStripes(1), workers, opsPer); v > single {
			single = v
		}
		if v := registrationThroughput(core.NewAtomic(), workers, opsPer); v > striped {
			striped = v
		}
	}
	return single, striped
}

// E25: the read side's two bounds after the watermark + striped-index
// change. (1) A satisfied Check is one atomic load: zero mutex
// acquisitions, probe-counted on every registry implementation, with
// ImmediateChecks still exact. (2) Check registration no longer funnels
// through one engine mutex: at GOMAXPROCS=4 the striped index sustains
// at least collapseFloor of the single-index engine's throughput — on a
// multi-core host it should exceed it, but the floor is what a 1-CPU CI
// host can assert deterministically (striping must never cost the
// serialized case its performance; BENCH_8.json records the same A/B at
// full size).
func init() {
	const collapseFloor = 0.70
	register(Experiment{
		ID:    "E25",
		Title: "Read-side scaling: zero-lock satisfied checks and striped Check registration",
		Paper: "Section 7 prices check(C,v) at a suspension only when v exceeds the value; the " +
			"monotonicity argument (section 2) makes a stale read safe on the satisfied side, so a " +
			"satisfied check should cost one atomic load — no lock — and concurrent registrations at " +
			"distinct levels should not contend on a single structure lock.",
		Notes: "Both bounds are asserted at run time (the experiment panics on violation, and the " +
			"quick suite runs it in CI). Every registry implementation completes a satisfied " +
			"Check/CheckContext/WaitTimeout batch with zero probe-counted mutex acquisitions — " +
			"engine and stripe mutexes both — and ImmediateChecks counts exactly one per call, so " +
			"the lock-free path is invisible in the cost model, not just cheap. Registration " +
			"throughput compares the striped level index (NewAtomic) against a single-index engine " +
			"(NewAtomicStripes(1)) at 1, 2, and 4 Ps, best-of-N fresh-counter trials; the asserted " +
			"bound at 4 Ps is the collapse floor (striped >= 0.70x single-index) because this host " +
			"has one CPU — the sweep shape, not a speedup, is the reproducible claim here, and " +
			"BENCH_8.json carries the full-size numbers. The trade is priced honestly: " +
			"publishing the watermark costs the mutex-based impls one seq-cst store per " +
			"Increment (a same-day min-of-10 BenchmarkIncrement A/B put list/heap/broadcast " +
			"at ~16→~24ns; chan ~17→~20ns), while the write-optimized paths hold their " +
			"ground (sharded -2%, fc +2%, atomic +8% from the stripe-minimum sweep) and the " +
			"satisfied-Check side drops ~57% (E11's 1e6-satisfied-check table, ~18→~8ns per " +
			"call on list/heap/chan/broadcast). Counter patterns are Check-heavy, so the " +
			"read side is the right side to buy; write-heavy workloads were already routed " +
			"to sharded, which is unregressed.",
		Run: func(cfg Config) []*harness.Table {
			checkOps, regOps, trials := 5000, 20000, 10
			if cfg.Quick {
				checkOps, regOps, trials = 500, 2000, 5
			}

			t1 := harness.NewTable("Satisfied checks are lock-free and exactly counted",
				"impl", "satisfied checks", "mutex acquisitions", "immediate checks", "verdict")
			for _, impl := range core.Registry() {
				locks, immediate, issued := satisfiedZeroLocks(impl, checkOps)
				t1.Add(string(impl), harness.U(issued), harness.U(locks), harness.U(immediate),
					verdict(locks == 0 && immediate == issued))
			}

			t2 := harness.NewTable(
				fmt.Sprintf("Check-registration throughput: striped vs single-index engine (best of %d)", trials),
				"procs", "single-index ops/s", "striped ops/s", "striped/single", "bound")
			var ratioAt4 float64
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				single, striped := pairedRegistrationThroughput(procs, regOps/procs, trials)
				runtime.GOMAXPROCS(prev)
				ratio := striped / single
				bound := "-"
				if procs == 4 {
					ratioAt4 = ratio
					bound = verdict(ratio >= collapseFloor)
				}
				t2.Add(harness.I(procs), harness.F(single, 0), harness.F(striped, 0),
					fmt.Sprintf("%.2fx", ratio), bound)
			}
			if ratioAt4 < collapseFloor {
				panic(fmt.Sprintf("experiments: E25 registration-scaling bound violated: striped index at %.2fx of single-index throughput at 4 Ps (want >= %.2fx)",
					ratioAt4, collapseFloor))
			}
			return []*harness.Table{t1, t2}
		},
	})
}
