package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/harness"
)

// incrementStorm runs workers goroutines, each issuing perWorker unit
// increments against c, and returns once all have finished.
func incrementStorm(c core.Interface, workers, perWorker int) {
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
}

// opsPerSec renders an increments-per-second cell.
func opsPerSec(ops int, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fM/s", float64(ops)/d.Seconds()/1e6)
}

// E19: increment throughput — the write-heavy regime. The section 7 cost
// model prices Check/Increment by distinct waited-on levels, but a
// single-mutex Increment still serializes every update even when nobody
// waits. The sharded design's waiter-gated striped fast path is the fix;
// this experiment is the benchmark trajectory's headline number
// (BENCH_2.json and the CI bench-smoke job record it).
func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Increment throughput: waiter-gated striped fast path vs locked designs",
		Paper: "Not in the paper: the section 7 cost model makes operation cost proportional to " +
			"distinct waited-on levels, yet every locked design serializes Increment even with no " +
			"waiters at all. The sharded implementation gates a GOMAXPROCS-striped lock-free " +
			"increment path on \"are there waiters?\", paying the exact locked path only while " +
			"someone waits.",
		Notes: "With no waiters the sharded counter's increments are one CAS on a private cache " +
			"line (the storm's first contended CAS on its base cell stripes it), so it leads every locked design at any proc count (no scheduler round trips), " +
			"and the gap widens as GOMAXPROCS grows — the per-proc curves live in the " +
			"counterbench/v2 sweep (BENCH_6.json) and E23. The fc design instead keeps the " +
			"single value but lets the lock holder fold rivals' published deltas, trading " +
			"sharded's flush cost for combining. With a waiter parked the gate forces the exact " +
			"locked path and sharded tracks the atomic/list cost — the fast path is bought only " +
			"when its absence of waiters makes it safe.",
		Run: func(cfg Config) []*harness.Table {
			workers, perWorker, reps := 8, 100000, 5
			if cfg.Quick {
				workers, perWorker, reps = 4, 10000, 3
			}
			ops := workers * perWorker

			noWait := harness.NewTable("No waiters: "+harness.I(workers)+" goroutines x "+
				harness.I(perWorker)+" unit increments",
				"implementation", "median", "increments/sec", "vs list")
			var base harness.Timing
			for _, impl := range core.Registry() {
				impl := impl
				tm := harness.Measure(reps, func() {
					incrementStorm(core.NewImpl(impl), workers, perWorker)
				})
				if impl == core.ImplList {
					base = tm
					noWait.Add(string(impl), harness.Dur(tm.Median()), opsPerSec(ops, tm.Median()), "1.00x")
					continue
				}
				noWait.Add(string(impl), harness.Dur(tm.Median()), opsPerSec(ops, tm.Median()),
					harness.Ratio(harness.Speedup(base, tm)))
			}

			gated := harness.NewTable("One parked waiter (sharded gate raised): same storm",
				"implementation", "median", "increments/sec", "vs list")
			var gatedBase harness.Timing
			for _, impl := range core.Registry() {
				impl := impl
				tm := harness.Measure(reps, func() {
					c := core.NewImpl(impl)
					ctx, cancel := context.WithCancel(context.Background())
					parked := make(chan struct{})
					done := make(chan struct{})
					go func() {
						close(parked)
						c.CheckContext(ctx, 1<<62)
						close(done)
					}()
					<-parked
					time.Sleep(time.Millisecond) // let the waiter suspend
					incrementStorm(c, workers, perWorker)
					cancel()
					<-done
				})
				if impl == core.ImplList {
					gatedBase = tm
					gated.Add(string(impl), harness.Dur(tm.Median()), opsPerSec(ops, tm.Median()), "1.00x")
					continue
				}
				gated.Add(string(impl), harness.Dur(tm.Median()), opsPerSec(ops, tm.Median()),
					harness.Ratio(harness.Speedup(gatedBase, tm)))
			}
			return []*harness.Table{noWait, gated}
		},
	})
}
