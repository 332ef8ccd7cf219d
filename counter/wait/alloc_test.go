//go:build !race

package wait_test

import (
	"testing"

	"monotonic/counter"
	"monotonic/counter/wait"
)

var condSink *wait.Cond

// TestCombinatorAllocs pins what building a Cond costs. A combinator
// gathers its counters, watched as they are, into stack storage, since
// the predicate engine copies them into the Cond, and the Cond is one
// object holding the engine's Cond by value. What is left is the
// combinator's counter slice, the Cond, the engine's counters, slots
// and scratch, and a threshold's levels and their copy. (The race
// detector inflates allocation counts, hence the build tag.)
func TestCombinatorAllocs(t *testing.T) {
	a, b := counter.New(), counter.New()
	pair := []counter.Interface{a, b}
	for _, tc := range []struct {
		name  string
		build func() *wait.Cond
		max   float64
	}{
		{"Sum(a, b).AtLeast", func() *wait.Cond { return wait.Sum(a, b).AtLeast(3) }, 5},
		{"KOfN(1 of 2)", func() *wait.Cond { return wait.KOfN(pair, 1, 3) }, 6},
		{"Min(a, b).AtLeast", func() *wait.Cond { return wait.Min(a, b).AtLeast(3) }, 7},
	} {
		if n := testing.AllocsPerRun(100, func() { condSink = tc.build() }); n > tc.max {
			t.Errorf("%s: %v allocs per Cond, want at most %v", tc.name, n, tc.max)
		}
	}
}
