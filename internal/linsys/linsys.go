// Package linsys implements dense linear-system solving by Gaussian
// elimination, parallelized with a single monotonic counter in the exact
// shape of the paper's ShortestPaths3 (section 4.5): threads own row
// blocks, iteration k is gated by Check(k) on the pivot counter, and the
// owner of row k+1 publishes it (into a staging area) and increments as
// soon as it has eliminated it — so fast threads run ahead of slow ones
// instead of meeting at a per-iteration barrier.
//
// Elimination is performed without pivoting; the generators produce
// strictly diagonally dominant systems, for which that is numerically
// stable. Because each row is updated only by its owner and always in
// ascending k order, the parallel elimination performs bit-for-bit the
// same floating-point operations as the sequential one — the results are
// identical, not merely close (the section 6 determinacy property showing
// up as numerical reproducibility).
package linsys

import (
	"math"

	"monotonic/internal/core"
	"monotonic/internal/sthreads"
	"monotonic/internal/sync2"
	"monotonic/internal/workload"
)

// System is a dense n x n system A x = b.
type System struct {
	A [][]float64
	B []float64
}

// N returns the system dimension.
func (s System) N() int { return len(s.B) }

// Clone deep-copies the system.
func (s System) Clone() System {
	n := s.N()
	out := System{A: make([][]float64, n), B: append([]float64(nil), s.B...)}
	for i := range s.A {
		out.A[i] = append([]float64(nil), s.A[i]...)
	}
	return out
}

// RandomDominant generates a strictly diagonally dominant system (hence
// nonsingular and safely eliminable without pivoting), deterministic from
// the seed.
func RandomDominant(n int, seed uint64) System {
	rng := workload.NewRNG(seed)
	sys := System{A: make([][]float64, n), B: make([]float64, n)}
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				row[j] = rng.Float64()*2 - 1
				sum += math.Abs(row[j])
			}
		}
		row[i] = sum + 1 + rng.Float64()
		sys.A[i] = row
		sys.B[i] = rng.Float64()*10 - 5
	}
	return sys
}

// SolveSeq eliminates and back-substitutes sequentially; the oracle.
func SolveSeq(sys System) []float64 {
	w := sys.Clone()
	n := w.N()
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			eliminateRow(w.A[i], w.B, i, w.A[k], w.B[k], k)
		}
	}
	return backSubstitute(w)
}

// eliminateRow applies pivot row pk (with right-hand side bk) to row i.
func eliminateRow(row []float64, b []float64, i int, pk []float64, bk float64, k int) {
	factor := row[k] / pk[k]
	row[k] = 0
	for j := k + 1; j < len(row); j++ {
		row[j] -= factor * pk[j]
	}
	b[i] -= factor * bk
}

func backSubstitute(w System) []float64 {
	n := w.N()
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := w.B[i]
		for j := i + 1; j < n; j++ {
			sum -= w.A[i][j] * x[j]
		}
		x[i] = sum / w.A[i][i]
	}
	return x
}

// SolveBarrier eliminates with numThreads threads in lockstep: one
// barrier pass per pivot (the ShortestPaths2 structure).
func SolveBarrier(sys System, numThreads int, skew workload.Skew) []float64 {
	w := sys.Clone()
	n := w.N()
	if numThreads < 1 {
		numThreads = 1
	}
	if numThreads > n {
		numThreads = n
	}
	if n == 0 {
		return nil
	}
	b := sync2.NewBarrier(numThreads)
	sthreads.ForChunked(sthreads.Concurrent, n, numThreads, func(t, lo, hi int) {
		for k := 0; k < n; k++ {
			start := lo
			if k+1 > start {
				start = k + 1
			}
			for i := start; i < hi; i++ {
				eliminateRow(w.A[i], w.B, i, w.A[k], w.B[k], k)
			}
			if skew != nil {
				workload.SpinSkewed(skew, t, numThreads, 200)
			}
			b.Pass()
		}
	})
	return backSubstitute(w)
}

// SolveCounter eliminates with the section 4.5 dataflow: pivCount's value
// k means pivot rows 0..k are staged; the owner of row k+1 publishes it
// the moment it is eliminated. newCounter makes pivCount.
func SolveCounter(sys System, numThreads int, skew workload.Skew, newCounter func() core.Monotonic) []float64 {
	w := sys.Clone()
	n := w.N()
	if numThreads < 1 {
		numThreads = 1
	}
	if numThreads > n {
		numThreads = n
	}
	if n == 0 {
		return nil
	}
	pivCount := newCounter()
	pivA := make([][]float64, n)
	pivB := make([]float64, n)
	pivA[0] = append([]float64(nil), w.A[0]...)
	pivB[0] = w.B[0]
	sthreads.ForChunked(sthreads.Concurrent, n, numThreads, func(t, lo, hi int) {
		for k := 0; k < n; k++ {
			if k >= hi {
				// Every row this thread owns is already fully
				// eliminated; it will never publish or consume
				// further pivots.
				break
			}
			pivCount.Check(uint64(k))
			pk, bk := pivA[k], pivB[k]
			start := lo
			if k+1 > start {
				start = k + 1
			}
			for i := start; i < hi; i++ {
				eliminateRow(w.A[i], w.B, i, pk, bk, k)
				if i == k+1 {
					pivA[k+1] = append([]float64(nil), w.A[k+1]...)
					pivB[k+1] = w.B[k+1]
					pivCount.Increment(1)
				}
			}
			if skew != nil {
				workload.SpinSkewed(skew, t, numThreads, 200)
			}
		}
	})
	return backSubstitute(w)
}

// Residual returns the infinity norm of A x - b for the original system.
func Residual(sys System, x []float64) float64 {
	max := 0.0
	for i := range sys.A {
		sum := -sys.B[i]
		for j, a := range sys.A[i] {
			sum += a * x[j]
		}
		if r := math.Abs(sum); r > max {
			max = r
		}
	}
	return max
}

// EqualExact reports bitwise equality of two solution vectors — the
// determinacy property makes this the right comparison, not a tolerance.
func EqualExact(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
