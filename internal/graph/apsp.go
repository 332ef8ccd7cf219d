package graph

import (
	"monotonic/internal/core"
	"monotonic/internal/sthreads"
	"monotonic/internal/sync2"
	"monotonic/internal/workload"
)

// This file contains the four ShortestPaths programs of the paper's
// section 4, transliterated from its pseudo-code. Each takes the edge
// matrix and returns the path matrix. The multithreaded variants
// additionally take the thread count, the execution mode (Concurrent for
// real threading, Sequential for the section 6 equivalence experiments),
// and an optional per-thread Skew that injects artificial load imbalance
// for the E4 performance experiments (skew == nil means no extra work).
//
// All variants partition the rows among threads with the paper's
// t*N/numThreads block rule.

// perRowWork burns skewed synthetic work attributed to one row update, so
// load imbalance between threads is controllable in benchmarks.
func perRowWork(skew workload.Skew, t, numThreads int) {
	if skew != nil {
		workload.SpinSkewed(skew, t, numThreads, 200)
	}
}

// ShortestPaths1 is the sequential Floyd-Warshall algorithm (section 4.2).
func ShortestPaths1(edge Matrix) Matrix {
	n := edge.N()
	path := edge.Clone()
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if newPath := addSat(path[i][k], path[k][j]); newPath < path[i][j] {
					path[i][j] = newPath
				}
			}
		}
	}
	return path
}

// ShortestPaths2 is the multithreaded Floyd-Warshall algorithm with an
// N-way barrier keeping iterations in lockstep (section 4.3).
func ShortestPaths2(edge Matrix, numThreads int, mode sthreads.Mode, skew workload.Skew) Matrix {
	n := edge.N()
	path := edge.Clone()
	b := sync2.NewBarrier(numThreads)
	if mode == sthreads.Sequential {
		// A barrier program is not sequentially executable for
		// numThreads > 1 (the first Pass would deadlock); this is the
		// structural weakness sections 4.5 and 6 point out. Run the
		// plain sequential algorithm instead so callers can still
		// cross-check results.
		if numThreads > 1 {
			return ShortestPaths1(edge)
		}
	}
	sthreads.For(mode, 0, numThreads, 1, func(t int) {
		lo, hi := t*n/numThreads, (t+1)*n/numThreads
		for k := 0; k < n; k++ {
			for i := lo; i < hi; i++ {
				row, krow := path[i], path[k]
				pik := row[k]
				for j := 0; j < n; j++ {
					if newPath := addSat(pik, krow[j]); newPath < row[j] {
						row[j] = newPath
					}
				}
				perRowWork(skew, t, numThreads)
			}
			b.Pass()
		}
	})
	return path
}

// ShortestPaths3CV is the more efficient multithreaded algorithm of
// section 4.4: threads proceed independently, gated per iteration by an
// array of N condition variables (manual-reset events), with row k of
// iteration k-1 staged in kRow[k].
func ShortestPaths3CV(edge Matrix, numThreads int, mode sthreads.Mode, skew workload.Skew) Matrix {
	n := edge.N()
	path := edge.Clone()
	kDone := make([]sync2.Event, n+1)
	kRow := make(Matrix, n+1)
	kRow[0] = append([]int(nil), path[0]...)
	kDone[0].Set()
	sthreads.For(mode, 0, numThreads, 1, func(t int) {
		lo, hi := t*n/numThreads, (t+1)*n/numThreads
		for k := 0; k < n; k++ {
			kDone[k].Check()
			krow := kRow[k]
			for i := lo; i < hi; i++ {
				row := path[i]
				pik := row[k]
				for j := 0; j < n; j++ {
					if newPath := addSat(pik, krow[j]); newPath < row[j] {
						row[j] = newPath
					}
				}
				perRowWork(skew, t, numThreads)
				if i == k+1 {
					kRow[k+1] = append([]int(nil), path[k+1]...)
					kDone[k+1].Set()
				}
			}
		}
	})
	return path
}

// ShortestPaths3 is the paper's headline program (section 4.5): the
// condition-variable array of ShortestPaths3CV replaced by a single
// monotonic counter, made by newCounter, whose value k means "rows for
// iterations 0..k are published".
func ShortestPaths3(edge Matrix, numThreads int, mode sthreads.Mode, skew workload.Skew, newCounter func() core.Monotonic) Matrix {
	kCount := newCounter()
	n := edge.N()
	path := edge.Clone()
	kRow := make(Matrix, n+1)
	kRow[0] = append([]int(nil), path[0]...)
	sthreads.For(mode, 0, numThreads, 1, func(t int) {
		lo, hi := t*n/numThreads, (t+1)*n/numThreads
		for k := 0; k < n; k++ {
			kCount.Check(uint64(k))
			krow := kRow[k]
			for i := lo; i < hi; i++ {
				row := path[i]
				pik := row[k]
				for j := 0; j < n; j++ {
					if newPath := addSat(pik, krow[j]); newPath < row[j] {
						row[j] = newPath
					}
				}
				perRowWork(skew, t, numThreads)
				if i == k+1 {
					kRow[k+1] = append([]int(nil), path[k+1]...)
					kCount.Increment(1)
				}
			}
		}
	})
	return path
}
