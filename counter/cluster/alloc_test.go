//go:build !race

package cluster_test

import (
	"testing"

	"monotonic/counter/countertest"
)

// TestTryIncrementAllocs pins a cluster increment on a cached route (the
// ledger update, the route, and the pooled client's encode and resend
// queue) at zero heap allocations per call. (The race detector inflates
// allocation counts, hence the build tag.)
func TestTryIncrementAllocs(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	c := dialCluster(t, addrs)
	ctr := c.Counter(countertest.FreshName("allocs"))
	ctr.Increment(1)
	ctr.Check(1) // route cached, session and name known on both sides

	const runs = 1000
	n := testing.AllocsPerRun(runs, func() {
		if err := ctr.TryIncrement(1); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("TryIncrement: %v allocs per call, want 0", n)
	}
	ctr.Check(runs + 2) // the warm-up call plus runs, all applied
}
