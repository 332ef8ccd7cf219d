// Package stencil implements the paper's section 5.1 example: a
// time-stepped simulation of a one-dimensional object (heat transfer along
// a metal rod) whose interior cell i at time t is a function of cells
// i-1, i, i+1 at time t-1, with constant boundary cells.
//
// Three synchronization strategies are provided at per-cell granularity
// (one thread per interior cell, the paper's formulation):
//
//   - RunSequential: double-buffered reference.
//   - RunBarrier: two traditional N-way barrier passes per time step.
//   - RunCounter: the paper's "ragged barrier" — an array of counters, one
//     per cell, synchronizing each thread only with its two neighbours, so
//     faster threads can run ahead of slower ones.
//
// Blocked variants (one thread per contiguous block of cells, the
// practical HPC decomposition) implement the same two protocols at thread
// granularity for the E5 benchmarks: RunBarrierBlocked and
// RunCounterBlocked.
package stencil

import (
	"monotonic/internal/core"
	"monotonic/internal/sthreads"
	"monotonic/internal/sync2"
	"monotonic/internal/workload"
)

// UpdateFunc computes a cell's next state from its left neighbour, itself,
// and its right neighbour at the previous time step.
type UpdateFunc func(l, s, r float64) float64

// Heat is the default update rule: explicit finite-difference heat
// diffusion with conduction coefficient 1/4.
func Heat(l, s, r float64) float64 {
	return s + 0.25*(l-2*s+r)
}

// RunSequential advances the simulation numSteps steps with a double
// buffer and returns the final state. It is the correctness oracle: all
// parallel variants must produce exactly this result (cell updates are
// independent, so floating-point evaluation order is identical).
func RunSequential(initial []float64, numSteps int, f UpdateFunc) []float64 {
	cur := append([]float64(nil), initial...)
	next := append([]float64(nil), initial...)
	for t := 0; t < numSteps; t++ {
		for i := 1; i < len(cur)-1; i++ {
			next[i] = f(cur[i-1], cur[i], cur[i+1])
		}
		cur, next = next, cur
	}
	return cur
}

// perStepWork injects skewed synthetic load for thread t of n, modelling
// the load imbalance ragged barriers exploit.
func perStepWork(skew workload.Skew, t, n int) {
	if skew != nil {
		workload.SpinSkewed(skew, t, n, 300)
	}
}

// RunBarrier is the paper's traditional program: one thread per interior
// cell, all threads crossing an N-way barrier before exchanging states and
// again before updating them.
func RunBarrier(initial []float64, numSteps int, f UpdateFunc, skew workload.Skew) []float64 {
	n := len(initial)
	state := append([]float64(nil), initial...)
	if n <= 2 || numSteps == 0 {
		return state
	}
	b := sync2.NewBarrier(n - 2)
	sthreads.For(sthreads.Concurrent, 1, n-1, 1, func(i int) {
		var lState, rState float64
		for t := 1; t <= numSteps; t++ {
			b.Pass()
			lState = state[i-1]
			rState = state[i+1]
			b.Pass()
			perStepWork(skew, i-1, n-2)
			state[i] = f(lState, state[i], rState)
		}
	})
	return state
}

// RunCounter is the paper's ragged-barrier program: one thread and one
// counter per cell, each made by newCounter; c[i] reaching 2t-1 means
// thread i has read both neighbour states for step t, and 2t means it
// has completed step t. Boundary counters are pre-incremented past the
// horizon since boundary cells never change.
func RunCounter(initial []float64, numSteps int, f UpdateFunc, skew workload.Skew, newCounter func() core.Monotonic) []float64 {
	n := len(initial)
	state := append([]float64(nil), initial...)
	if n <= 2 || numSteps == 0 {
		return state
	}
	c := make([]core.Monotonic, n)
	for i := range c {
		c[i] = newCounter()
	}
	c[0].Increment(uint64(2 * numSteps))
	c[n-1].Increment(uint64(2 * numSteps))
	sthreads.For(sthreads.Concurrent, 1, n-1, 1, func(i int) {
		myState := state[i]
		var lState, rState float64
		for t := 1; t <= numSteps; t++ {
			tt := uint64(t)
			c[i-1].Check(2*tt - 2)
			lState = state[i-1]
			c[i+1].Check(2*tt - 2)
			rState = state[i+1]
			c[i].Increment(1)
			perStepWork(skew, i-1, n-2)
			myState = f(lState, myState, rState)
			c[i-1].Check(2*tt - 1)
			c[i+1].Check(2*tt - 1)
			state[i] = myState
			c[i].Increment(1)
		}
	})
	return state
}

// blockBounds partitions the interior cells [1, n-1) among numThreads
// with the paper's block rule, returning thread t's [lo, hi).
func blockBounds(n, numThreads, t int) (lo, hi int) {
	interior := n - 2
	lo = 1 + t*interior/numThreads
	hi = 1 + (t+1)*interior/numThreads
	return lo, hi
}

// RunBarrierBlocked is the traditional strategy at thread granularity:
// numThreads threads each own a contiguous block of interior cells,
// compute the step into a private buffer, and cross a barrier between
// compute and write-back phases.
func RunBarrierBlocked(initial []float64, numSteps, numThreads int, f UpdateFunc, skew workload.Skew) []float64 {
	n := len(initial)
	state := append([]float64(nil), initial...)
	if n <= 2 || numSteps == 0 || numThreads < 1 {
		return state
	}
	if numThreads > n-2 {
		numThreads = n - 2
	}
	b := sync2.NewBarrier(numThreads)
	sthreads.ForN(sthreads.Concurrent, numThreads, func(t int) {
		lo, hi := blockBounds(n, numThreads, t)
		buf := make([]float64, hi-lo)
		for s := 1; s <= numSteps; s++ {
			for i := lo; i < hi; i++ {
				buf[i-lo] = f(state[i-1], state[i], state[i+1])
			}
			perStepWork(skew, t, numThreads)
			b.Pass()
			copy(state[lo:hi], buf)
			b.Pass()
		}
	})
	return state
}

// RunCounterBlocked is the ragged barrier at thread granularity: one
// counter per thread, with the paper's two-phase protocol applied between
// neighbouring blocks. ct[t] >= 2s-1 means thread t has read its halo
// cells for step s; ct[t] >= 2s means it has written step s back.
func RunCounterBlocked(initial []float64, numSteps, numThreads int, f UpdateFunc, skew workload.Skew) []float64 {
	n := len(initial)
	state := append([]float64(nil), initial...)
	if n <= 2 || numSteps == 0 || numThreads < 1 {
		return state
	}
	if numThreads > n-2 {
		numThreads = n - 2
	}
	// Virtual boundary "threads" at index 0 and numThreads+1 are
	// pre-satisfied, mirroring the paper's boundary counters.
	ct := make([]*core.Counter, numThreads+2)
	for i := range ct {
		ct[i] = core.New()
	}
	horizon := uint64(2 * numSteps)
	ct[0].Increment(horizon)
	ct[numThreads+1].Increment(horizon)
	sthreads.ForN(sthreads.Concurrent, numThreads, func(t int) {
		me := t + 1
		lo, hi := blockBounds(n, numThreads, t)
		buf := make([]float64, hi-lo)
		for s := 1; s <= numSteps; s++ {
			ss := uint64(s)
			// Read halos once both neighbours have finished step s-1.
			ct[me-1].Check(2*ss - 2)
			left := state[lo-1]
			ct[me+1].Check(2*ss - 2)
			right := state[hi]
			// Halos read: neighbours may overwrite their edge cells
			// while we compute (the paper increments before the
			// update for exactly this overlap).
			ct[me].Increment(1)
			// Compute the step from own cells plus saved halos. Only
			// owned cells may be touched here: once ct[me] reached
			// 2s-1 the neighbours are free to overwrite their edges,
			// so even a dead read of state[lo-1] or state[hi] would
			// be a race.
			for i := lo; i < hi; i++ {
				l, r := left, right
				if i > lo {
					l = state[i-1]
				}
				if i < hi-1 {
					r = state[i+1]
				}
				buf[i-lo] = f(l, state[i], r)
			}
			perStepWork(skew, t, numThreads)
			// Write back once both neighbours have read our edges.
			ct[me-1].Check(2*ss - 1)
			ct[me+1].Check(2*ss - 1)
			copy(state[lo:hi], buf)
			ct[me].Increment(1) // step s published
		}
	})
	return state
}

// InitialRod returns the canonical test fixture: a rod of n cells at
// temperature 0 with hot ends (boundary 100), plus an optional interior
// spike to break symmetry.
func InitialRod(n int) []float64 {
	s := make([]float64, n)
	if n == 0 {
		return s
	}
	s[0] = 100
	s[n-1] = 100
	if n > 4 {
		s[n/3] = 50
	}
	return s
}
