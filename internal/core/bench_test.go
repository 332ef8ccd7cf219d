package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Microbenchmarks of the data-structure costs behind the section 7
// complexity claims, at finer grain than the root-level tables.

// BenchmarkIncrement measures raw concurrent increment throughput with
// no waiters — the write-heavy regime the sharded fast path targets.
// Every registered implementation runs under RunParallel so the mutex
// designs pay their real contention cost; the sharded design's stripes
// are what the ≥ 5x-at-8-cores acceptance number in BENCH_2.json refers
// to (on a single-CPU host the gap is contention avoidance only).
func BenchmarkIncrement(b *testing.B) {
	for _, impl := range Registry() {
		b.Run(string(impl), func(b *testing.B) {
			c := NewImpl(impl)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Increment(1)
				}
			})
		})
	}
}

// BenchmarkIncrementWithWaiter is the same storm with one parked waiter,
// which holds the sharded counter's gate up for the whole run: every
// implementation, sharded included, must pay the exact locked wake path.
// The interesting comparison is against BenchmarkIncrement — the cost of
// the gate being raised.
func BenchmarkIncrementWithWaiter(b *testing.B) {
	for _, impl := range Registry() {
		b.Run(string(impl), func(b *testing.B) {
			c := NewImpl(impl)
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
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Increment(1)
				}
			})
			b.StopTimer()
			cancel()
			<-done
		})
	}
}

// parkWaiters suspends n goroutines on c at the given level via f
// (Check or CheckContext) and returns a wait function that blocks until
// all have resumed. It returns once every waiter is believed parked.
func parkWaiters(n int, f func()) (wait func()) {
	var wg sync.WaitGroup
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			f()
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	time.Sleep(2 * time.Millisecond) // started fires on the way into f; let everyone suspend
	return wg.Wait
}

// BenchmarkWakeFanout times one Increment releasing n parked Check
// waiters on a single level — the wake-path scalability number (E20 is
// the experiment-shaped version). Only the Increment-to-last-resumed
// span is timed; spawning and parking the waiters is not.
func BenchmarkWakeFanout(b *testing.B) {
	for _, impl := range Registry() {
		for _, n := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/waiters=%d", impl, n), func(b *testing.B) {
				c := NewImpl(impl)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					level := c.Value() + 1
					wait := parkWaiters(n, func() { c.Check(level) })
					b.StartTimer()
					c.Increment(1)
					wait()
				}
			})
		}
	}
}

// BenchmarkBroadcastLatency is BenchmarkWakeFanout's cancellable twin:
// the waiters park in CheckContext, so they sleep in a select on the
// node's ready channel rather than on the condition variable, and the
// wake is a single channel close instead of a broadcast.
func BenchmarkBroadcastLatency(b *testing.B) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // keep ctx.Done() non-nil so the select path is exercised
	for _, impl := range Registry() {
		b.Run(string(impl), func(b *testing.B) {
			c := NewImpl(impl)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				level := c.Value() + 1
				wait := parkWaiters(n, func() { _ = c.CheckContext(ctx, level) })
				b.StartTimer()
				c.Increment(1)
				wait()
			}
		})
	}
}

// BenchmarkCheckSatisfied measures Check on an already-satisfied level —
// the watermark fast path. Every implementation should resolve this with
// one atomic load and no mutex, so the sub-benchmarks should be nearly
// indistinguishable and flat in the number of parallel callers.
func BenchmarkCheckSatisfied(b *testing.B) {
	for _, impl := range Registry() {
		b.Run(string(impl), func(b *testing.B) {
			c := NewImpl(impl)
			c.Increment(1)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Check(1)
				}
			})
		})
	}
}

// BenchmarkCheckStorm measures registration pressure on the level index:
// every worker repeatedly arms and immediately cancels a sentinel at its
// own distinct never-satisfied level — Check's slow-path registration
// and cancellation drain without the park. On the single-index designs
// all workers serialize on the engine mutex; on the striped index
// distinct levels hash to distinct stripes, so this is the benchmark the
// E25 scaling claim is about.
func BenchmarkCheckStorm(b *testing.B) {
	for _, impl := range Registry() {
		b.Run(string(impl), func(b *testing.B) {
			c := NewImpl(impl).(Sentineler)
			var worker atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				// Worker-unique level far above anything Increment could
				// reach, so registration never self-satisfies.
				level := uint64(1)<<40 + worker.Add(1)<<20
				for pb.Next() {
					cancel, armed := Sentinel(c, level, func() {})
					if armed {
						cancel()
					}
				}
			})
		})
	}
}

// BenchmarkSimInsert measures pure waiter-registration cost on the
// reference list via the single-threaded simulator: inserting a new
// highest level into a list already holding `levels` distinct levels is
// the list design's O(L) worst case.
func BenchmarkSimInsert(b *testing.B) {
	for _, levels := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			s := NewSim()
			for l := 1; l <= levels; l++ {
				s.Check(uint64(l))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Register at the far end, then undo: resume is O(1)
				// after satisfying, so drive a satisfy/drain cycle
				// on a private throwaway level far above the rest.
				lv := uint64(levels + 1)
				s.Check(lv)
				n := s.c.index.head
				for n != nil && n.level != lv {
					n = n.next
				}
				if n != nil {
					s.c.wl.mu.Lock()
					s.c.leave(n) // unregister without satisfying
					s.c.wl.mu.Unlock()
				}
			}
		})
	}
}

// BenchmarkReleaseCycle measures a full park-and-release round trip:
// `levels` goroutines suspend on distinct levels, one increment frees
// them all. The whole cycle is timed (goroutine spawn included), so
// compare sub-benchmarks against each other, not in absolute terms.
func BenchmarkReleaseCycle(b *testing.B) {
	for _, levels := range []int{8, 64} {
		for _, impl := range []Impl{ImplList, ImplHeap, ImplBroadcast} {
			b.Run(fmt.Sprintf("%s/levels=%d", impl, levels), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := NewImpl(impl)
					var wg sync.WaitGroup
					started := make(chan struct{}, levels)
					for l := 0; l < levels; l++ {
						wg.Add(1)
						go func(lv uint64) {
							defer wg.Done()
							started <- struct{}{}
							c.Check(lv)
						}(uint64(l) + 1)
					}
					for l := 0; l < levels; l++ {
						<-started
					}
					c.Increment(uint64(levels))
					wg.Wait()
				}
			})
		}
	}
}

// BenchmarkSnapshot measures Inspect on a populated structure.
func BenchmarkSnapshot(b *testing.B) {
	c := New()
	var wg sync.WaitGroup
	const levels = 64
	started := make(chan struct{}, levels)
	for l := 0; l < levels; l++ {
		wg.Add(1)
		go func(lv uint64) {
			defer wg.Done()
			started <- struct{}{}
			c.Check(lv)
		}(uint64(l) + 1)
	}
	for l := 0; l < levels; l++ {
		<-started
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inspect()
	}
	b.StopTimer()
	c.Increment(levels)
	wg.Wait()
}

// BenchmarkShardedManyCounters is the sharded footprint's benchmark: one
// goroutine increments 4,096 counters in a seeded random order, the
// shape of counterd's hosted names under an ingest load. Nothing
// contends, so every counter stays on its base cell: 288 B each, a
// working set of 1.2 MB. The count is chosen so that striped counters
// (1.1 KB each at GOMAXPROCS 2, 4.5 MB in all) would be past L2.
func BenchmarkShardedManyCounters(b *testing.B) {
	const n = 4096
	cs := make([]*ShardedCounter, n)
	for i := range cs {
		cs[i] = NewSharded()
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs[order[i%n]].Increment(1)
	}
}
