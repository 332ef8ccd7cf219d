// Benchmarks regenerating every experiment table of EXPERIMENTS.md as
// testing.B benchmarks (one family per table/figure; the experiment IDs
// refer to DESIGN.md's index). Run:
//
//	go test -bench=. -benchmem .
package monotonic_test

import (
	"fmt"
	"sync"
	"testing"

	"monotonic/internal/accumulate"
	"monotonic/internal/broadcast"
	"monotonic/internal/core"
	"monotonic/internal/derived"
	"monotonic/internal/explore"
	"monotonic/internal/graph"
	"monotonic/internal/linsys"
	"monotonic/internal/makespan"
	"monotonic/internal/paraffins"
	"monotonic/internal/plate"
	"monotonic/internal/ring"
	"monotonic/internal/stencil"
	"monotonic/internal/sthreads"
	"monotonic/internal/sync2"
	"monotonic/internal/wavefront"
	"monotonic/internal/workload"
)

// --- E4: APSP synchronization mechanisms -------------------------------

func apspGraph(n int) graph.Matrix { return graph.Random(n, 0.35, 20, 42) }

func BenchmarkAPSPSequential(b *testing.B) {
	for _, n := range []int{64, 128} {
		edge := apspGraph(n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.ShortestPaths1(edge)
			}
		})
	}
}

func benchAPSPVariant(b *testing.B, run func(graph.Matrix, int, sthreads.Mode, workload.Skew) graph.Matrix) {
	for _, n := range []int{64, 128} {
		edge := apspGraph(n)
		for _, nt := range []int{2, 4, 8} {
			for _, sk := range []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 4}} {
				b.Run(fmt.Sprintf("N=%d/threads=%d/skew=%s", n, nt, sk.Name()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						run(edge, nt, sthreads.Concurrent, sk)
					}
				})
			}
		}
	}
}

func BenchmarkAPSPBarrier(b *testing.B)      { benchAPSPVariant(b, graph.ShortestPaths2) }
func BenchmarkAPSPCondvarArray(b *testing.B) { benchAPSPVariant(b, graph.ShortestPaths3CV) }
func BenchmarkAPSPCounter(b *testing.B) {
	benchAPSPVariant(b, func(edge graph.Matrix, nt int, mode sthreads.Mode, sk workload.Skew) graph.Matrix {
		return graph.ShortestPaths3(edge, nt, mode, sk, core.ImplList.New)
	})
}

// --- E5: stencil ragged barrier ----------------------------------------

func BenchmarkStencilPerCell(b *testing.B) {
	init := stencil.InitialRod(64)
	const steps = 50
	for _, sk := range []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 8}} {
		b.Run("barrier/skew="+sk.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stencil.RunBarrier(init, steps, stencil.Heat, sk)
			}
		})
		b.Run("counter/skew="+sk.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stencil.RunCounter(init, steps, stencil.Heat, sk, core.ImplList.New)
			}
		})
	}
}

func BenchmarkStencilBlocked(b *testing.B) {
	init := stencil.InitialRod(512)
	const steps = 100
	for _, nt := range []int{4, 8} {
		for _, sk := range []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 8}} {
			b.Run(fmt.Sprintf("barrier/threads=%d/skew=%s", nt, sk.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					stencil.RunBarrierBlocked(init, steps, nt, stencil.Heat, sk)
				}
			})
			b.Run(fmt.Sprintf("counter/threads=%d/skew=%s", nt, sk.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					stencil.RunCounterBlocked(init, steps, nt, stencil.Heat, sk)
				}
			})
		}
	}
}

// --- E6: ordered accumulation ------------------------------------------

func BenchmarkAccumulate(b *testing.B) {
	values := accumulate.SumValues(48, 7)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			accumulate.SumSeq(values)
		}
	})
	b.Run("lock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			accumulate.SumLock(values, 3)
		}
	})
	b.Run("counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			accumulate.SumCounter(sthreads.Concurrent, values, 3)
		}
	})
}

// --- E7: broadcast blockSize sweep --------------------------------------

func BenchmarkBroadcastBlockSize(b *testing.B) {
	const items = 20000
	for _, bs := range []int{1, 16, 256, 1024} {
		blocks := []int{bs, bs, bs, bs}
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				broadcast.Run(broadcast.Config{Items: items, WriterBlock: bs, ReaderBlocks: blocks, NewCounter: core.ImplList.New})
			}
		})
	}
}

func BenchmarkBroadcastReaders(b *testing.B) {
	const items = 20000
	for _, readers := range []int{1, 2, 4, 8} {
		blocks := make([]int, readers)
		for i := range blocks {
			blocks[i] = 64
		}
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				broadcast.Run(broadcast.Config{Items: items, WriterBlock: 64, ReaderBlocks: blocks, NewCounter: core.ImplList.New})
			}
		})
	}
}

// --- E8: exhaustive exploration cost ------------------------------------

func BenchmarkExploreSection6(b *testing.B) {
	programs := map[string]explore.Program{
		"lock":      explore.LockProgram(),
		"counter":   explore.CounterProgram(),
		"ordered-4": explore.OrderedAccumulateProgram(4),
		"lock-4":    explore.LockAccumulateProgram(4),
	}
	for name, p := range programs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explore.MustExplore(p)
			}
		})
	}
}

// --- E10: cost model — distinct levels vs waiters ------------------------

// BenchmarkCheckLevels measures one release cycle: W waiters spread over
// L distinct levels, then one satisfying increment. Per the section 7
// claim, time should track L far more than W for the list design.
func BenchmarkCheckLevels(b *testing.B) {
	for _, waiters := range []int{64, 256} {
		for _, levels := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("waiters=%d/levels=%d", waiters, levels), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := core.New()
					var wg sync.WaitGroup
					started := make(chan struct{}, waiters)
					for w := 0; w < waiters; w++ {
						lv := uint64(w%levels) + 1
						wg.Add(1)
						go func() {
							defer wg.Done()
							started <- struct{}{}
							c.Check(lv)
						}()
					}
					for w := 0; w < waiters; w++ {
						<-started
					}
					c.Increment(uint64(levels))
					wg.Wait()
				}
			})
		}
	}
}

// --- E11: implementation ablation ----------------------------------------

func BenchmarkImplSatisfiedCheck(b *testing.B) {
	for _, impl := range core.Registry() {
		c := core.NewImpl(impl)
		c.Increment(1 << 40)
		b.Run(string(impl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Check(uint64(i % 1024))
			}
		})
	}
}

func BenchmarkImplUncontendedIncrement(b *testing.B) {
	for _, impl := range core.Registry() {
		b.Run(string(impl), func(b *testing.B) {
			c := core.NewImpl(impl)
			for i := 0; i < b.N; i++ {
				c.Increment(1)
			}
		})
	}
}

func BenchmarkImplMixedWorkload(b *testing.B) {
	const checkers, perChecker = 4, 100
	for _, impl := range core.Registry() {
		b.Run(string(impl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := core.NewImpl(impl)
				var wg sync.WaitGroup
				for t := 0; t < checkers; t++ {
					wg.Add(1)
					go func(t int) {
						defer wg.Done()
						for j := 0; j < perChecker; j++ {
							c.Check(uint64(j*checkers + t))
						}
					}(t)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < checkers*perChecker; j++ {
						c.Increment(1)
					}
				}()
				wg.Wait()
			}
		})
	}
}

// --- E12: paraffins pipeline ---------------------------------------------

func BenchmarkParaffins(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			paraffins.GenerateRadicalsSeq(9)
		}
	})
	b.Run("counter-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			paraffins.GenerateRadicals(9, sthreads.Concurrent, core.ImplList.New)
		}
	})
}

// --- S19 ablation: counter-derived barrier vs traditional barriers ----------

func BenchmarkBarrierDesigns(b *testing.B) {
	const parties = 8
	const cycles = 100
	b.Run("central-condvar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bar := sync2.NewBarrier(parties)
			runBarrierCycles(parties, cycles, func() func() { return func() { bar.Pass() } })
		}
	})
	b.Run("sense-reversing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bar := sync2.NewSenseBarrier(parties)
			runBarrierCycles(parties, cycles, func() func() {
				s := bar.Register()
				return s.Pass
			})
		}
	})
	b.Run("counter-derived", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bar := derived.NewBarrier(parties)
			runBarrierCycles(parties, cycles, func() func() {
				p := bar.Register()
				return p.Pass
			})
		}
	})
}

// runBarrierCycles spins up parties goroutines, each crossing the barrier
// `cycles` times via the per-party pass function built by mk.
func runBarrierCycles(parties, cycles int, mk func() func()) {
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		pass := mk()
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				pass()
			}
		}()
	}
	wg.Wait()
}

// --- E13: multiprocessor makespan model ------------------------------------

func BenchmarkMakespanModel(b *testing.B) {
	w := makespan.NoisyWork(64, 1000, 10, workload.Uniform{}, 0.9, 3)
	b.Run("barrier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			makespan.Barrier(64, 1000, w)
		}
	})
	b.Run("ragged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			makespan.Ragged(64, 1000, w)
		}
	})
	b.Run("apsp-dataflow", func(b *testing.B) {
		owner := makespan.BlockOwner(1000, 64)
		for i := 0; i < b.N; i++ {
			makespan.APSPDataflow(64, 1000, w, owner)
		}
	})
}

// --- E16: 2-D plate ----------------------------------------------------------

func BenchmarkPlate(b *testing.B) {
	init := plate.HotEdges(66, 66)
	const steps = 20
	for _, tiles := range [][2]int{{2, 2}, {4, 4}} {
		b.Run(fmt.Sprintf("barrier/tiles=%dx%d", tiles[0], tiles[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plate.RunBarrier(init, steps, tiles[0], tiles[1], plate.Heat, nil)
			}
		})
		b.Run(fmt.Sprintf("counter/tiles=%dx%d", tiles[0], tiles[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plate.RunCounter(init, steps, tiles[0], tiles[1], plate.Heat, nil)
			}
		})
	}
}

// --- E17: Gaussian elimination ------------------------------------------------

func BenchmarkLinsys(b *testing.B) {
	sys := linsys.RandomDominant(96, 11)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linsys.SolveSeq(sys)
		}
	})
	for _, nt := range []int{2, 4} {
		b.Run(fmt.Sprintf("barrier/threads=%d", nt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linsys.SolveBarrier(sys, nt, nil)
			}
		})
		b.Run(fmt.Sprintf("counter/threads=%d", nt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linsys.SolveCounter(sys, nt, nil, core.ImplList.New)
			}
		})
	}
}

// --- E14: 2-D wavefront ------------------------------------------------------

func BenchmarkWavefront(b *testing.B) {
	rng := workload.NewRNG(17)
	mk := func(n int) string {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = "acgt"[rng.Intn(4)]
		}
		return string(buf)
	}
	a, s := mk(800), mk(800)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wavefront.EditDistanceSeq(a, s, wavefront.DefaultCosts)
		}
	})
	for _, blk := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("banded/block=%d", blk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wavefront.EditDistance(a, s, wavefront.DefaultCosts, 4, blk, core.ImplList.New)
			}
		})
	}
}

// --- S23: bounded broadcast ring ---------------------------------------------

func BenchmarkRing(b *testing.B) {
	const items = 5000
	for _, capacity := range []int{1, 8, 64} {
		for _, readers := range []int{1, 4} {
			b.Run(fmt.Sprintf("cap=%d/readers=%d", capacity, readers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := ring.New[int](capacity, readers)
					var wg sync.WaitGroup
					for rd := 0; rd < readers; rd++ {
						wg.Add(1)
						go func(rd int) {
							defer wg.Done()
							cursor := r.Reader(rd)
							for j := 0; j < items; j++ {
								cursor.Next()
							}
						}(rd)
					}
					w := r.Writer()
					for j := 0; j < items; j++ {
						w.Publish(j)
					}
					wg.Wait()
				}
			})
		}
	}
}

// --- E3/E9 guard: agreement checked once per bench run ---------------------

func BenchmarkAPSPVerified(b *testing.B) {
	edge := graph.RandomNegative(64, 0.35, 15, 6, 3)
	want := graph.ShortestPaths1(edge)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := graph.ShortestPaths3(edge, 4, sthreads.Concurrent, nil, core.ImplList.New)
		if !got.Equal(want) {
			b.Fatal("counter variant diverged")
		}
	}
}
