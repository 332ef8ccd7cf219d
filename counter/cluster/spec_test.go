package cluster_test

import (
	"context"
	"testing"
	"time"

	"monotonic/counter"
	"monotonic/counter/cluster"
	"monotonic/counter/countertest"
	"monotonic/counter/wait"
)

// TestSpecWaitColocatedRoutesServerSide: a predicate whose counters all
// hash to one member ships to that member as a single registration —
// External with zero local sentinels — and a flip from another cluster
// client releases it.
func TestSpecWaitColocatedRoutesServerSide(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	c := dialCluster(t, addrs)
	other := dialCluster(t, addrs)

	na := nameOn(t, c, addrs[0], "co")
	nb := nameOn(t, c, addrs[0], "co")
	cond := wait.Sum(c.Counter(na), c.Counter(nb)).AtLeast(10)

	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !cond.Stats().External && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); !st.External || st.Armed != 0 {
		t.Fatalf("stats = %+v, want External with zero local sentinels", st)
	}
	other.Counter(na).Increment(4)
	other.Counter(nb).Increment(6)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("colocated spec wait never released")
	}
}

// TestSpecWaitShardedFallsBack: counters on different members cannot
// ship as one registration; the combinator must fall back to
// per-counter sentinels and still work.
func TestSpecWaitShardedFallsBack(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	c := dialCluster(t, addrs)
	other := dialCluster(t, addrs)

	na := nameOn(t, c, addrs[0], "sh")
	nb := nameOn(t, c, addrs[1], "sh")
	cond := wait.Sum(c.Counter(na), c.Counter(nb)).AtLeast(10)

	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	time.Sleep(30 * time.Millisecond)
	if st := cond.Stats(); st.External {
		t.Fatalf("stats = %+v: sharded counters must not route as one spec", st)
	}
	other.Counter(na).Increment(4)
	other.Counter(nb).Increment(6)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sharded predicate wait never released")
	}
}

// TestParkedWaitForSurvivesFailover is the regression for predicate
// waits racing failover: a spec parked on the member about to die must
// be re-encoded and re-routed to the names' new home — still ONE
// server-side registration, not a degradation to per-counter sentinels
// — and release once the ledger replay plus the remaining increments
// land there.
func TestParkedWaitForSurvivesFailover(t *testing.T) {
	addrs, kills := startNodes(t, 2)
	c := dialCluster(t, addrs,
		cluster.WithFailAfter(3),
		cluster.WithBackoff(time.Millisecond, 5*time.Millisecond))

	na := nameOn(t, c, addrs[0], "pfo")
	nb := nameOn(t, c, addrs[0], "pfo")
	ca, cb := c.Counter(na), c.Counter(nb)

	// Ledger state the failover must carry to the successor.
	ca.Increment(30)
	cb.Increment(30)
	ca.Check(30)
	cb.Check(30) // applied on the doomed node before it dies

	cond := wait.Sum(ca, cb).AtLeast(100)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !cond.Stats().External && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !cond.Stats().External {
		t.Fatal("spec wait never routed server-side before the failover")
	}

	kills[0]()
	for {
		if live := c.Live(); len(live) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node death never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both names now home on the survivor; the re-ask must have
	// registered there rather than degrading to sentinels.
	rearm := time.Now().Add(5 * time.Second)
	for !cond.Stats().External && time.Now().Before(rearm) {
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); !st.External {
		t.Fatalf("stats = %+v after failover: spec not re-routed to the successor", st)
	}

	// The replayed 60 plus these 40 flip the predicate on the successor.
	ca.Increment(40)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked WaitFor never released after failover re-route")
	}
}

// TestShardedWaitForSurvivesFailover: a predicate over counters on two
// members evaluates client-side over one sentinel per counter. When one
// member dies, closing its pool kicks the sentinel parked there, the
// predicate re-arms on the name's new home, and it still releases once
// the ledger replay and the remaining increments land there.
func TestShardedWaitForSurvivesFailover(t *testing.T) {
	addrs, kills := startNodes(t, 2)
	c := dialCluster(t, addrs,
		cluster.WithFailAfter(3),
		cluster.WithBackoff(time.Millisecond, 5*time.Millisecond))

	ca := c.Counter(nameOn(t, c, addrs[0], "sfo"))
	cb := c.Counter(nameOn(t, c, addrs[1], "sfo"))
	ca.Increment(30)
	cb.Increment(30)
	ca.Check(30) // applied on the doomed node before it dies
	cb.Check(30)

	cond := wait.Sum(ca, cb).AtLeast(100)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for cond.Stats().Armed != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); st.External || st.Armed != 2 {
		t.Fatalf("stats = %+v, want one sentinel on each member", st)
	}

	kills[0]()
	for len(c.Live()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("node death never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The replayed 30 plus these 40 on the successor, and b's 30, flip it.
	ca.Increment(40)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("sharded predicate never released after failover (stats %+v)", cond.Stats())
	}
}

// TestSplitWaitForDegradesOnFailover: a routed predicate whose counters
// colocate only until their home dies. The dead pool's Close kicks the
// registration, the re-ask finds the names on two different successors
// and is refused, and the predicate falls back to one sentinel per
// counter. It must still release once the ledger replays and the
// remaining increments land.
func TestSplitWaitForDegradesOnFailover(t *testing.T) {
	addrs, kills := startNodes(t, 3)
	c := dialCluster(t, addrs,
		cluster.WithFailAfter(3),
		cluster.WithBackoff(time.Millisecond, 5*time.Millisecond))
	// Placement is a pure function of the live set, so a cluster over the
	// two survivors shows where node 0's names move once it is dead.
	after := dialCluster(t, addrs[1:])
	var na, nb string
	for i := 0; na == "" || nb == ""; i++ {
		if i == 100000 {
			t.Fatal("no pair of names on node 0 that splits over the survivors")
		}
		name := countertest.FreshName("split")
		if home, _ := c.NodeFor(name); home != addrs[0] {
			continue
		}
		switch next, _ := after.NodeFor(name); {
		case next == addrs[1] && na == "":
			na = name
		case next == addrs[2] && nb == "":
			nb = name
		}
	}
	ca, cb := c.Counter(na), c.Counter(nb)
	ca.Increment(30)
	cb.Increment(30)
	ca.Check(30) // applied on the doomed node before it dies
	cb.Check(30)

	cond := wait.Sum(ca, cb).AtLeast(100)
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !cond.Stats().External && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !cond.Stats().External {
		t.Fatal("spec wait never routed server-side before the failover")
	}

	kills[0]()
	for len(c.Live()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("node death never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	degrade := time.Now().Add(5 * time.Second)
	for st := cond.Stats(); (st.External || st.Armed != 2) && time.Now().Before(degrade); st = cond.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); st.External || st.Armed != 2 {
		t.Fatalf("stats = %+v after the split, want one sentinel on each successor", st)
	}
	// The replayed 30 + 30 plus these 40 flip it.
	ca.Increment(40)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("split predicate never released after failover (stats %+v)", cond.Stats())
	}
}

// TestSpecWaitClusterCloseDegrades: closing the cluster under a routed
// predicate must not strand the waiter — the re-ask finds the cluster
// closed and is refused, the predicate degrades, and the waiter stays
// cancellable.
func TestSpecWaitClusterCloseDegrades(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	c := dialCluster(t, addrs)
	na := nameOn(t, c, addrs[0], "ccd")
	nb := nameOn(t, c, addrs[0], "ccd")
	cond := wait.Sum(c.Counter(na), c.Counter(nb)).AtLeast(10)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !cond.Stats().External && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	for cond.Stats().External && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := cond.Stats(); st.External {
		t.Fatalf("stats = %+v: Close must degrade the routed spec", st)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// The cluster counter keeps satisfying the predicate layer's optional
// interfaces.
var _ interface {
	counter.Interface
	Name() string
	Watermark() uint64
} = (*cluster.Counter)(nil)
