package experiments

import (
	"monotonic/internal/broadcast"
	"monotonic/internal/core"
	"monotonic/internal/harness"
)

// E7: section 5.3 — single-writer multiple-reader broadcast, sweeping the
// synchronization granularity (blockSize) for writer and readers. The
// paper's claim: per-item synchronization is too expensive when items are
// cheap, and blocking amortizes it; different threads may choose
// different granularities freely.
func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Section 5.3: single-writer multiple-reader broadcast, blockSize sweep",
		Paper: "Section 5.3: one counter synchronizes a writer with any number of independent " +
			"readers of the whole sequence; per-item synchronization may be too expensive for " +
			"cheap items, so writer and each reader can block at their own granularity, chosen " +
			"independently.",
		Notes: "Every reader sees the exact sequence at every granularity mix. The sweep shows the " +
			"paper's tuning claim: per-item synchronization costs several times more than blocked " +
			"synchronization, and the benefit saturates once the block amortizes the counter " +
			"operations (the increments column tracks cost almost perfectly).",
		Run: func(cfg Config) []*harness.Table {
			items, readers, reps := 20000, 4, 5
			blockSizes := []int{1, 4, 16, 64, 256, 1024}
			if cfg.Quick {
				items, readers, reps = 2000, 2, 2
				blockSizes = []int{1, 16, 256}
			}
			want := broadcast.ExpectedChecksum(items)

			sweep := harness.NewTable("Uniform blockSize sweep (items="+harness.I(items)+", readers="+harness.I(readers)+")",
				"blockSize", "median", "increments", "suspended checks", "correct")
			for _, bs := range blockSizes {
				bs := bs
				blocks := make([]int, readers)
				for i := range blocks {
					blocks[i] = bs
				}
				var last broadcast.Result
				tm := harness.Measure(reps, func() {
					last = broadcast.Run(broadcast.Config{
						Items: items, WriterBlock: bs, ReaderBlocks: blocks, NewCounter: core.ImplList.New,
					})
				})
				ok := true
				for _, s := range last.ReaderSums {
					ok = ok && s == want
				}
				sweep.Add(harness.I(bs), harness.Dur(tm.Median()),
					harness.U(last.Stats.Increments), harness.U(last.Stats.Suspends), verdict(ok))
			}

			mixed := harness.NewTable("Per-thread granularities (writer and each reader choose independently)",
				"writerBlock", "readerBlocks", "median", "correct")
			mixes := []struct {
				wb  int
				rbs []int
			}{
				{1, []int{1, 32, 1024, 20000}},
				{64, []int{1, 7, 64, 512}},
				{1024, []int{1024, 1, 128, 16}},
			}
			if cfg.Quick {
				mixes = mixes[:1]
				mixes[0].rbs = []int{1, 32}
			}
			for _, mix := range mixes {
				mix := mix
				var last broadcast.Result
				tm := harness.Measure(reps, func() {
					last = broadcast.Run(broadcast.Config{
						Items: items, WriterBlock: mix.wb, ReaderBlocks: mix.rbs, NewCounter: core.ImplList.New,
					})
				})
				ok := true
				for _, s := range last.ReaderSums {
					ok = ok && s == want
				}
				mixed.Add(harness.I(mix.wb), fmtInts(mix.rbs), harness.Dur(tm.Median()), verdict(ok))
			}
			return []*harness.Table{sweep, mixed}
		},
	})
}

func fmtInts(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "/"
		}
		s += harness.I(x)
	}
	return s
}
