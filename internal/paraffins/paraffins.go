// Package paraffins implements the Paraffins Problem (Salishan problem 1,
// the application the paper's section 5.3 cites for the single-writer
// multiple-reader broadcast pattern): enumerate the paraffin molecules —
// acyclic alkanes CnH2n+2 — of each size up to a bound.
//
// The enumeration is the classical centroid decomposition. A *radical*
// (CnH2n+1-) is a rooted tree of carbon atoms in which every node has at
// most three children (the fourth bond attaches the parent or the root's
// host). Radicals of size s are built from multisets of smaller radicals.
// A paraffin of n carbons is either vertex-centered — a carbon whose at
// most four radicals each have size <= floor((n-1)/2) and sum to n-1 — or,
// for even n, edge-centered — an unordered pair of radicals of size n/2.
// Every alkane is counted exactly once.
//
// The parallel generator is the paper's pattern verbatim: one thread per
// radical size, all stages stored in a shared array, with a single
// monotonic counter broadcasting "stages 0..s are published" to every
// larger stage's generator. Stage s+1 calls Check(s+1) before reading
// stages 0..s; the writer of stage s calls Increment(1) after publishing.
package paraffins

import (
	"sort"
	"strings"

	"monotonic/internal/core"
	"monotonic/internal/sthreads"
)

// Radical is a canonical-form rooted carbon tree. Two radicals are
// structurally identical iff their Repr strings are equal.
type Radical struct {
	Size int    // number of carbon atoms
	Repr string // canonical form: "C(" + sorted child reprs + ")"
}

// makeRadical assembles a radical from child reprs (already canonical).
func makeRadical(size int, children []string) Radical {
	sorted := append([]string(nil), children...)
	sort.Strings(sorted)
	return Radical{Size: size, Repr: "C(" + strings.Join(sorted, "") + ")"}
}

// Pools holds, for each size 1..MaxSize, the canonical radicals of that
// size. Pools[0] is the empty stage (there is exactly one size-0 radical,
// hydrogen, represented implicitly).
type Pools [][]Radical

// GenerateRadicalsSeq enumerates all radicals of sizes 1..maxSize
// sequentially — the oracle for the parallel generator.
func GenerateRadicalsSeq(maxSize int) Pools {
	pools := make(Pools, maxSize+1)
	for s := 1; s <= maxSize; s++ {
		pools[s] = generateStage(pools, s)
	}
	return pools
}

// GenerateRadicals enumerates radicals with one thread per size,
// synchronized by a single monotonic counter, made by newCounter, in the
// section 5.3 broadcast pattern. The result is identical to
// GenerateRadicalsSeq.
func GenerateRadicals(maxSize int, mode sthreads.Mode, newCounter func() core.Monotonic) Pools {
	pools := make(Pools, maxSize+1)
	stageCount := newCounter()
	stageCount.Increment(1) // stage 0 (hydrogen) is implicitly published
	sthreads.For(mode, 1, maxSize+1, 1, func(s int) {
		// Wait until stages 0..s-1 are published, then read them all.
		stageCount.Check(uint64(s))
		pools[s] = generateStage(pools, s)
		stageCount.Increment(1)
	})
	return pools
}

// generateStage builds all radicals of size s from the smaller stages: a
// root carbon plus a multiset of at most three radicals whose sizes sum to
// s-1. Multisets are enumerated as non-decreasing sequences over the
// combined smaller pools, so each canonical form appears exactly once.
func generateStage(pools Pools, s int) []Radical {
	// Flatten the smaller stages into one indexable pool.
	var pool []Radical
	for sz := 1; sz < s; sz++ {
		pool = append(pool, pools[sz]...)
	}
	var out []Radical
	children := make([]string, 0, 3)
	var rec func(minIdx, remaining, slots int)
	rec = func(minIdx, remaining, slots int) {
		if remaining == 0 {
			out = append(out, makeRadical(s, children))
			return
		}
		if slots == 0 {
			return
		}
		for idx := minIdx; idx < len(pool); idx++ {
			r := pool[idx]
			if r.Size > remaining {
				continue
			}
			children = append(children, r.Repr)
			rec(idx, remaining-r.Size, slots-1)
			children = children[:len(children)-1]
		}
	}
	rec(0, s-1, 3)
	return out
}

// CountParaffins returns the number of distinct paraffins (alkanes) with
// exactly n carbons, given radical pools covering sizes up to n/2.
// CountParaffins(0) is 0 by convention (no carbons, no molecule).
func CountParaffins(pools Pools, n int) int {
	if n <= 0 {
		return 0
	}
	if n == 1 {
		return 1 // methane: a carbon with four hydrogens
	}
	total := countVertexCentered(pools, n)
	if n%2 == 0 {
		// Edge-centered: an unordered pair (with repetition) of
		// radicals of size n/2.
		r := len(pools[n/2])
		total += r * (r + 1) / 2
	}
	return total
}

// countVertexCentered counts multisets of at most four radicals, each of
// size <= floor((n-1)/2), with sizes summing to n-1 — the trees whose
// unique centroid is the central carbon.
func countVertexCentered(pools Pools, n int) int {
	maxBranch := (n - 1) / 2
	var pool []Radical
	for sz := 1; sz <= maxBranch && sz < len(pools); sz++ {
		pool = append(pool, pools[sz]...)
	}
	count := 0
	var rec func(minIdx, remaining, slots int)
	rec = func(minIdx, remaining, slots int) {
		if remaining == 0 {
			count++
			return
		}
		if slots == 0 {
			return
		}
		for idx := minIdx; idx < len(pool); idx++ {
			if pool[idx].Size > remaining {
				continue
			}
			rec(idx, remaining-pool[idx].Size, slots-1)
		}
	}
	rec(0, n-1, 4)
	return count
}

// EnumerateParaffins returns the canonical forms of all paraffins of
// exactly n carbons (for tests on small n; counting does not require
// materialization).
func EnumerateParaffins(pools Pools, n int) []string {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []string{"C()"}
	}
	var out []string
	maxBranch := (n - 1) / 2
	var pool []Radical
	for sz := 1; sz <= maxBranch && sz < len(pools); sz++ {
		pool = append(pool, pools[sz]...)
	}
	children := make([]string, 0, 4)
	var rec func(minIdx, remaining, slots int)
	rec = func(minIdx, remaining, slots int) {
		if remaining == 0 {
			sorted := append([]string(nil), children...)
			sort.Strings(sorted)
			out = append(out, "C("+strings.Join(sorted, "")+")")
			return
		}
		if slots == 0 {
			return
		}
		for idx := minIdx; idx < len(pool); idx++ {
			if pool[idx].Size > remaining {
				continue
			}
			children = append(children, pool[idx].Repr)
			rec(idx, remaining-pool[idx].Size, slots-1)
			children = children[:len(children)-1]
		}
	}
	rec(0, n-1, 4)
	if n%2 == 0 {
		half := pools[n/2]
		for i := 0; i < len(half); i++ {
			for j := i; j < len(half); j++ {
				pair := []string{half[i].Repr, half[j].Repr}
				sort.Strings(pair)
				out = append(out, "E("+pair[0]+pair[1]+")")
			}
		}
	}
	return out
}

// CountAll returns CountParaffins for every n in 1..maxN, generating the
// radical pools with the parallel pipeline over the reference counter.
func CountAll(maxN int, mode sthreads.Mode) []int {
	pools := GenerateRadicals(maxN/2, mode, func() core.Monotonic { return core.New() })
	out := make([]int, maxN+1)
	for n := 1; n <= maxN; n++ {
		out[n] = CountParaffins(pools, n)
	}
	return out
}
