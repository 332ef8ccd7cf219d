// Package wavefront implements two-dimensional wavefront computations —
// dynamic-programming tables where cell (i,j) depends on (i-1,j),
// (i,j-1), and (i-1,j-1) — parallelized with monotonic counters in the
// paper's dataflow style: one thread per row band, one counter per band,
// each band's counter value broadcasting "columns up to value are done"
// to the band below. This is the multi-level generalization of the
// section 5.3 broadcast: every level of one counter is consumed, in
// order, by the successor band.
//
// The concrete instance is global sequence alignment (Needleman-Wunsch
// edit distance), the canonical wavefront kernel.
package wavefront

import (
	"monotonic/internal/core"
	"monotonic/internal/sthreads"
)

// Costs parameterizes the alignment.
type Costs struct {
	Match    int // added when characters match (usually 0)
	Mismatch int // substitution cost
	Gap      int // insertion/deletion cost
}

// DefaultCosts is unit edit distance.
var DefaultCosts = Costs{Match: 0, Mismatch: 1, Gap: 1}

// EditDistanceSeq fills the full (len(a)+1) x (len(b)+1) DP table
// sequentially and returns the alignment cost of a vs b. It is the
// oracle for the parallel variants.
func EditDistanceSeq(a, b string, c Costs) int {
	n, m := len(a), len(b)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j * c.Gap
	}
	for i := 1; i <= n; i++ {
		cur[0] = i * c.Gap
		for j := 1; j <= m; j++ {
			cur[j] = cellCost(prev[j-1], prev[j], cur[j-1], a[i-1], b[j-1], c)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func cellCost(diag, up, left int, ca, cb byte, c Costs) int {
	sub := diag + c.Mismatch
	if ca == cb {
		sub = diag + c.Match
	}
	if v := up + c.Gap; v < sub {
		sub = v
	}
	if v := left + c.Gap; v < sub {
		sub = v
	}
	return sub
}

// EditDistance computes the same cost with the rows partitioned into
// `bands` horizontal bands, one thread per band, pipelined column-block
// by column-block: band t may fill columns [0, k*blockCols) of its rows
// only after band t-1's counter reaches k. Each band publishes its last
// row to the band below through the shared table. newCounter makes each
// band's counter.
func EditDistance(a, b string, c Costs, bands, blockCols int, newCounter func() core.Monotonic) int {
	n, m := len(a), len(b)
	if bands < 1 {
		bands = 1
	}
	if bands > n {
		bands = n
	}
	if blockCols < 1 {
		blockCols = 1
	}
	if n == 0 || bands == 0 {
		return EditDistanceSeq(a, b, c)
	}

	// Band t owns rows (bandLo(t), bandHi(t)] of the DP table (1-based
	// DP rows). Each band keeps its own working rows but writes its
	// final row into boundary[t] for the band below; boundary[-1] is
	// the DP top row.
	bandLo := func(t int) int { return t * n / bands }
	bandHi := func(t int) int { return (t + 1) * n / bands }

	boundary := make([][]int, bands+1)
	boundary[0] = make([]int, m+1)
	for j := 0; j <= m; j++ {
		boundary[0][j] = j * c.Gap
	}
	for t := 1; t <= bands; t++ {
		boundary[t] = make([]int, m+1)
		// Column 0 of each boundary is the DP base case for the last
		// row of band t-1; it is fixed up front since the publishing
		// loop only covers columns >= 1.
		boundary[t][0] = bandHi(t-1) * c.Gap
	}

	// done[t] counts the column blocks of band t's last row that have
	// been published into boundary[t+1]; band t+1 checks it before
	// reading those columns.
	done := make([]core.Monotonic, bands)
	for t := range done {
		done[t] = newCounter()
	}
	blocks := (m + blockCols - 1) / blockCols

	sthreads.ForN(sthreads.Concurrent, bands, func(t int) {
		lo, hi := bandLo(t), bandHi(t)
		rows := hi - lo
		if rows == 0 {
			// Unreachable while bands <= n, but kept correct: an
			// empty band forwards its predecessor's row block by
			// block, preserving the synchronization protocol.
			for blk := 0; blk < blocks; blk++ {
				jStart := blk*blockCols + 1
				jEnd := (blk + 1) * blockCols
				if jEnd > m {
					jEnd = m
				}
				if t > 0 {
					done[t-1].Check(uint64(blk) + 1)
				}
				copy(boundary[t+1][jStart:jEnd+1], boundary[t][jStart:jEnd+1])
				done[t].Increment(1)
			}
			return
		}
		// Working storage: one row per owned row, plus the incoming
		// boundary as row 0. work[r][j] is DP row lo+r+1.
		work := make([][]int, rows)
		for r := range work {
			work[r] = make([]int, m+1)
			work[r][0] = (lo + r + 1) * c.Gap
		}
		top := boundary[t] // owned by band t-1; read block-by-block
		for blk := 0; blk < blocks; blk++ {
			jStart := blk*blockCols + 1
			jEnd := (blk + 1) * blockCols
			if jEnd > m {
				jEnd = m
			}
			if t > 0 {
				done[t-1].Check(uint64(blk) + 1)
			}
			for r := 0; r < rows; r++ {
				above := top
				if r > 0 {
					above = work[r-1]
				}
				row := work[r]
				ai := a[lo+r]
				for j := jStart; j <= jEnd; j++ {
					row[j] = cellCost(above[j-1], above[j], row[j-1], ai, b[j-1], c)
				}
			}
			// Publish this block of the band's last row, then
			// broadcast.
			copy(boundary[t+1][jStart:jEnd+1], work[rows-1][jStart:jEnd+1])
			done[t].Increment(1)
		}
	})
	return boundary[bands][m]
}
