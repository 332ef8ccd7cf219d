//go:build !race

package cluster_test

import (
	"context"
	"testing"
	"time"

	"monotonic/counter/countertest"
	"monotonic/internal/core"
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

// hookOwner is a hook owner that ignores its fire.
type hookOwner struct{ core.Hook }

func (*hookOwner) Fire() {}

// TestArmHookAllocs pins a cluster hook armed on the home node and
// cancelled at zero heap allocations, the client and the nodes in one
// process: the home client's wait entry holds the caller's hook, and
// the cluster wraps nothing around it. A blocked Check on the level
// keeps the level's node live on the home, so the home's engine
// allocates nothing either.
func TestArmHookAllocs(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	c := dialCluster(t, addrs)
	ctr := c.Counter(countertest.FreshName("armallocs"))
	ctr.Increment(1)
	ctr.Check(1) // route cached, session and name known on both sides
	ctx, cancel := context.WithCancel(context.Background())
	keeper := make(chan error, 1)
	parked := ctr.Stats().Suspends
	go func() { keeper <- ctr.CheckContext(ctx, 5) }()
	defer func() {
		cancel()
		<-keeper
	}()
	for deadline := time.Now().Add(5 * time.Second); ctr.Stats().Suspends == parked; {
		if time.Now().After(deadline) {
			t.Fatal("the home never parked the keeper's Check")
		}
		time.Sleep(time.Millisecond)
	}

	var h hookOwner
	h.Bind(&h)
	arm := func() {
		if !ctr.ArmHook(5, &h.Hook) {
			t.Fatal("ArmHook(5) not armed with the value at 1")
		}
		if !h.Cancel() {
			t.Fatal("Cancel of a pending hook reported it already fired")
		}
	}
	arm() // the entry the runs recycle
	if n := testing.AllocsPerRun(1000, arm); n != 0 {
		t.Errorf("ArmHook armed and cancelled: %v allocs, want 0", n)
	}
}
