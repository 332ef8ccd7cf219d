package experiments

import (
	"monotonic/internal/core"
	"monotonic/internal/harness"
	"monotonic/internal/wavefront"
	"monotonic/internal/workload"
)

// E14: 2-D wavefront pipelining (extension): the multi-level broadcast —
// every level of one counter consumed in order by the successor band —
// on the canonical alignment kernel, sweeping the synchronization
// granularity like E7 does in one dimension.
func init() {
	register(Experiment{
		ID:    "E14",
		Title: "Extension: 2-D wavefront (sequence alignment) over banded counters",
		Paper: "Not a paper experiment: this extends the section 5.3 broadcast to the classic " +
			"wavefront dependence (cell (i,j) needs (i-1,j), (i,j-1), (i-1,j-1)). One counter per " +
			"row band broadcasts column-block completion to the band below — every level of the " +
			"counter is consumed, in order, demonstrating the dynamically varying queue set at " +
			"application scale.",
		Notes: "All band/block configurations produce the sequential edit distance exactly. The " +
			"granularity sweep mirrors E7's shape in two dimensions: tiny blocks drown in counter " +
			"operations, large blocks amortize them, and the curve flattens once each block's " +
			"compute dominates a counter operation.",
		Run: func(cfg Config) []*harness.Table {
			an, bn, reps := 2000, 2000, 5
			if cfg.Quick {
				an, bn, reps = 300, 300, 2
			}
			rng := workload.NewRNG(17)
			a := randomDNA(rng, an)
			b := randomDNA(rng, bn)
			want := wavefront.EditDistanceSeq(a, b, wavefront.DefaultCosts)

			t := harness.NewTable("Edit distance of two random length-"+harness.I(an)+" sequences (4 bands)",
				"blockCols", "median", "correct")
			blockSet := []int{1, 8, 64, 256, 1024}
			if cfg.Quick {
				blockSet = []int{1, 16, 128}
			}
			for _, blk := range blockSet {
				blk := blk
				var got int
				tm := harness.Measure(reps, func() {
					got = wavefront.EditDistance(a, b, wavefront.DefaultCosts, 4, blk, core.ImplList.New)
				})
				t.Add(harness.I(blk), harness.Dur(tm.Median()), verdict(got == want))
			}

			bandsT := harness.NewTable("Band-count sweep (blockCols=64)",
				"bands", "median", "correct")
			bandSet := []int{1, 2, 4, 8, 16}
			if cfg.Quick {
				bandSet = []int{1, 4}
			}
			for _, bands := range bandSet {
				bands := bands
				var got int
				tm := harness.Measure(reps, func() {
					got = wavefront.EditDistance(a, b, wavefront.DefaultCosts, bands, 64, core.ImplList.New)
				})
				bandsT.Add(harness.I(bands), harness.Dur(tm.Median()), verdict(got == want))
			}
			return []*harness.Table{t, bandsT}
		},
	})
}

func randomDNA(rng *workload.RNG, n int) string {
	const alphabet = "acgt"
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alphabet[rng.Intn(4)]
	}
	return string(buf)
}
