package experiments

import (
	"monotonic/internal/core"
	"monotonic/internal/harness"
	"monotonic/internal/linsys"
	"monotonic/internal/workload"
)

// E17: Gaussian elimination in the section 4.5 dataflow shape —
// demonstrating that the counter pipeline transfers unchanged to a
// different dense kernel, and that determinacy shows up as bit-exact
// numerical reproducibility.
func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Extension: counter-pipelined Gaussian elimination",
		Paper: "Not a paper experiment: the ShortestPaths3 structure (Check(k) gates iteration k; " +
			"the owner of row k+1 publishes it and increments) applied verbatim to dense " +
			"Gaussian elimination on diagonally dominant systems.",
		Notes: "Both parallel eliminations return bit-for-bit the sequential solution — not " +
			"within tolerance, identical — because counter ordering fixes the floating-point " +
			"operation order (section 6 determinacy as numerical reproducibility). Residuals " +
			"confirm the solutions are correct, and the counter variant tracks the barrier " +
			"variant's cost while synchronizing pairwise.",
		Run: func(cfg Config) []*harness.Table {
			n, reps := 192, 5
			if cfg.Quick {
				n, reps = 48, 2
			}
			sys := linsys.RandomDominant(n, 11)
			want := linsys.SolveSeq(sys)

			t := harness.NewTable("Solve A x = b, n="+harness.I(n)+" (diagonally dominant)",
				"threads", "skew", "sequential", "barrier", "counter", "bit-identical", "residual")
			for _, nt := range []int{2, 4, 8} {
				for _, sk := range []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 4}} {
					nt, sk := nt, sk
					seqT := harness.Measure(reps, func() { linsys.SolveSeq(sys) })
					barT := harness.Measure(reps, func() { linsys.SolveBarrier(sys, nt, sk) })
					var got []float64
					cntT := harness.Measure(reps, func() { got = linsys.SolveCounter(sys, nt, sk, core.ImplList.New) })
					ok := linsys.EqualExact(got, want)
					t.Add(harness.I(nt), sk.Name(),
						harness.Dur(seqT.Median()), harness.Dur(barT.Median()), harness.Dur(cntT.Median()),
						verdict(ok), harness.F(linsys.Residual(sys, got), 12))
				}
			}
			return []*harness.Table{t}
		},
	})
}
