package experiments

import (
	"monotonic/internal/core"
	"monotonic/internal/harness"
	"monotonic/internal/stencil"
	"monotonic/internal/workload"
)

// E5: section 5.1 ragged barrier — the counter-array stencil vs the
// traditional barrier stencil, per-cell and blocked, with and without a
// straggler thread.
func init() {
	register(Experiment{
		ID:    "E5",
		Title: "Section 5.1: ragged barrier (stencil boundary exchange)",
		Paper: "Section 5.1 replaces the two full barriers per time step of a 1-D boundary-exchange " +
			"simulation with an array of counters providing pairwise neighbour synchronization, " +
			"removing the N-way bottleneck and letting threads run ahead of stragglers.",
		Notes: "Both protocols produce bit-identical physics. With threads outnumbering real " +
			"cores, wall time tracks the barrier version closely (typically within ~10%; no " +
			"parallel overlap exists for raggedness to exploit — see E13 for the multiprocessor " +
			"makespan, where it wins); what this table establishes is that the counter protocol's much finer " +
			"synchronization costs little more than the barrier even when it cannot help.",
		Run: func(cfg Config) []*harness.Table {
			cells, steps, reps := 128, 200, 5
			if cfg.Quick {
				cells, steps, reps = 32, 40, 2
			}
			init := stencil.InitialRod(cells)
			want := stencil.RunSequential(init, steps, stencil.Heat)
			equal := func(got []float64) bool {
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
				return true
			}

			perCell := harness.NewTable("Per-cell threads (paper's formulation): one thread and one counter per cell",
				"cells", "steps", "skew", "barrier", "counter (ragged)", "ragged vs barrier", "correct")
			for _, sk := range []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 8}} {
				sk := sk
				bar := harness.Measure(reps, func() { stencil.RunBarrier(init, steps, stencil.Heat, sk) })
				cnt := harness.Measure(reps, func() { stencil.RunCounter(init, steps, stencil.Heat, sk, core.ImplList.New) })
				ok := equal(stencil.RunCounter(init, steps, stencil.Heat, sk, core.ImplList.New)) &&
					equal(stencil.RunBarrier(init, steps, stencil.Heat, sk))
				perCell.Add(harness.I(cells), harness.I(steps), sk.Name(),
					harness.Dur(bar.Median()), harness.Dur(cnt.Median()),
					harness.Ratio(harness.Speedup(bar, cnt)), verdict(ok))
			}

			blocked := harness.NewTable("Blocked decomposition: one thread per block, pairwise counter sync",
				"cells", "steps", "threads", "skew", "barrier", "counter (ragged)", "ragged vs barrier", "correct")
			bigCells, bigSteps := 1024, 400
			if cfg.Quick {
				bigCells, bigSteps = 64, 40
			}
			bigInit := stencil.InitialRod(bigCells)
			bigWant := stencil.RunSequential(bigInit, bigSteps, stencil.Heat)
			bigEqual := func(got []float64) bool {
				for i := range got {
					if got[i] != bigWant[i] {
						return false
					}
				}
				return true
			}
			for _, nt := range []int{4, 8} {
				for _, sk := range []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 8}, workload.Alternating{Max: 4}} {
					nt, sk := nt, sk
					bar := harness.Measure(reps, func() {
						stencil.RunBarrierBlocked(bigInit, bigSteps, nt, stencil.Heat, sk)
					})
					cnt := harness.Measure(reps, func() {
						stencil.RunCounterBlocked(bigInit, bigSteps, nt, stencil.Heat, sk)
					})
					ok := bigEqual(stencil.RunCounterBlocked(bigInit, bigSteps, nt, stencil.Heat, sk))
					blocked.Add(harness.I(bigCells), harness.I(bigSteps), harness.I(nt), sk.Name(),
						harness.Dur(bar.Median()), harness.Dur(cnt.Median()),
						harness.Ratio(harness.Speedup(bar, cnt)), verdict(ok))
				}
			}
			return []*harness.Table{perCell, blocked}
		},
	})
}
