package experiments

import (
	"monotonic/internal/core"
	"monotonic/internal/graph"
	"monotonic/internal/harness"
	"monotonic/internal/sthreads"
	"monotonic/internal/workload"
)

// E3: the four section 4 programs agree on random graphs.
func init() {
	register(Experiment{
		ID:    "E3",
		Title: "Section 4: all APSP variants agree",
		Paper: "Sections 4.2-4.5 present four programs for the same problem: sequential " +
			"Floyd-Warshall, a barrier version, a condition-variable-array version, and the " +
			"counter version; all must compute the same path matrix.",
		Notes: "On random graphs with negative weights (and no negative cycles), every variant at " +
			"every thread count equals the sequential result, which in turn equals an independent " +
			"Bellman-Ford oracle.",
		Run: func(cfg Config) []*harness.Table {
			sizes := []int{32, 64, 128}
			threads := []int{1, 2, 4, 8}
			if cfg.Quick {
				sizes = []int{16, 32}
				threads = []int{1, 3}
			}
			t := harness.NewTable("Variant agreement on random negative-weight graphs",
				"N", "threads", "barrier", "condvar-array", "counter", "vs Bellman-Ford")
			for _, n := range sizes {
				edge := graph.RandomNegative(n, 0.35, 15, 6, uint64(n))
				want := graph.ShortestPaths1(edge)
				bf, _ := graph.AllPairsBellmanFord(edge)
				for _, nt := range threads {
					b := graph.ShortestPaths2(edge, nt, sthreads.Concurrent, nil)
					cv := graph.ShortestPaths3CV(edge, nt, sthreads.Concurrent, nil)
					cn := graph.ShortestPaths3(edge, nt, sthreads.Concurrent, nil, core.ImplList.New)
					t.Add(harness.I(n), harness.I(nt),
						verdict(b.Equal(want)), verdict(cv.Equal(want)), verdict(cn.Equal(want)),
						verdict(want.Equal(bf)))
				}
			}
			return []*harness.Table{t}
		},
	})
}

// E4: section 4's performance claim — the ragged (condvar/counter)
// programs beat the barrier program, most visibly under load imbalance,
// and the single counter matches the N condition variables without
// allocating N objects.
func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Section 4: APSP synchronization cost (barrier vs condvar array vs counter)",
		Paper: "Section 4 argues the barrier program suffers an N-way synchronization bottleneck " +
			"and load-imbalance delays, the condvar-array program avoids them at the cost of N " +
			"synchronization objects, and the counter program matches the condvar program with a " +
			"single object.",
		Notes: "The counter variant tracks the condvar-array variant closely (within a few percent " +
			"in every row) while allocating one object instead of N — the paper's equivalence claim. " +
			"With fewer real cores than threads the parallel variants serialize to the same total work, so " +
			"barrier-vs-ragged wall time is near 1x here; the multiprocessor form of the claim is " +
			"measured in E13 on the makespan model, where the counter dataflow wins decisively.",
		Run: func(cfg Config) []*harness.Table {
			n := 192
			reps := 5
			threads := []int{2, 4, 8}
			if cfg.Quick {
				n = 48
				reps = 2
				threads = []int{4}
			}
			edge := graph.Random(n, 0.35, 20, 42)
			skews := []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 4}}

			t := harness.NewTable("APSP median wall time (N="+harness.I(n)+")",
				"threads", "skew", "sequential", "barrier", "condvar-array", "counter",
				"counter vs barrier")
			for _, nt := range threads {
				for _, sk := range skews {
					sk := sk
					seq := harness.Measure(reps, func() { graph.ShortestPaths1(edge) })
					bar := harness.Measure(reps, func() {
						graph.ShortestPaths2(edge, nt, sthreads.Concurrent, sk)
					})
					cv := harness.Measure(reps, func() {
						graph.ShortestPaths3CV(edge, nt, sthreads.Concurrent, sk)
					})
					cn := harness.Measure(reps, func() {
						graph.ShortestPaths3(edge, nt, sthreads.Concurrent, sk, core.ImplList.New)
					})
					t.Add(harness.I(nt), sk.Name(),
						harness.Dur(seq.Median()), harness.Dur(bar.Median()),
						harness.Dur(cv.Median()), harness.Dur(cn.Median()),
						harness.Ratio(harness.Speedup(bar, cn)))
				}
			}
			return []*harness.Table{t}
		},
	})
}
