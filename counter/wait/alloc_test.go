//go:build !race

package wait_test

import (
	"testing"

	"monotonic/counter"
	"monotonic/counter/wait"
)

var condSink *wait.Cond

// TestCombinatorAllocs pins what building a Cond costs. A combinator
// adapts its counters into stack storage, since the predicate engine
// copies them into the Cond, so the adapted list costs no allocation of
// its own. (The race detector inflates allocation counts, hence the
// build tag.)
func TestCombinatorAllocs(t *testing.T) {
	a, b := counter.New(), counter.New()
	pair := []counter.Interface{a, b}
	for _, tc := range []struct {
		name  string
		build func() *wait.Cond
		max   float64
	}{
		{"Sum(a, b).AtLeast", func() *wait.Cond { return wait.Sum(a, b).AtLeast(3) }, 8},
		{"KOfN(1 of 2)", func() *wait.Cond { return wait.KOfN(pair, 1, 3) }, 9},
	} {
		if n := testing.AllocsPerRun(100, func() { condSink = tc.build() }); n > tc.max {
			t.Errorf("%s: %v allocs per Cond, want at most %v", tc.name, n, tc.max)
		}
	}
}
