package cluster_test

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monotonic/counter"
	"monotonic/counter/cluster"
	"monotonic/counter/countertest"
	"monotonic/counter/remote"
	"monotonic/counter/wait"
	"monotonic/internal/core"
	"monotonic/internal/server"
)

// startNode starts one loopback counterd and returns its address plus a
// kill function (idempotent) that severs it for good: listener and
// server close, so established connections die and reconnects are
// refused.
func startNode(t *testing.T) (addr string, kill func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	go s.Serve(lis)
	var once sync.Once
	kill = func() {
		once.Do(func() {
			lis.Close()
			s.Close()
		})
	}
	t.Cleanup(kill)
	return lis.Addr().String(), kill
}

func startNodes(t *testing.T, n int) (addrs []string, kills []func()) {
	t.Helper()
	for i := 0; i < n; i++ {
		a, k := startNode(t)
		addrs = append(addrs, a)
		kills = append(kills, k)
	}
	return addrs, kills
}

func dialCluster(t *testing.T, addrs []string, opts ...cluster.Option) *cluster.Cluster {
	t.Helper()
	c, err := cluster.DialCluster(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// nameOn burns fresh names until one hashes to the wanted node, so a
// test can aim traffic at a specific member.
func nameOn(t *testing.T, c *cluster.Cluster, addr, prefix string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := countertest.FreshName(prefix)
		if a, ok := c.NodeFor(name); ok && a == addr {
			return name
		}
	}
	t.Fatalf("no name found hashing to %s", addr)
	return ""
}

// TestConformance runs the exact black-box battery the in-process and
// single-node remote counters pass — cancellation semantics, Reset
// misuse, the goroutine-leak check — against cluster counters sharded
// over three loopback nodes. All three servers and the client run in
// this process, so the goroutine accounting covers every side.
func TestConformance(t *testing.T) {
	addrs, _ := startNodes(t, 3)
	c := dialCluster(t, addrs)
	countertest.Run(t, func(t *testing.T) counter.Interface {
		return c.Counter(countertest.FreshName("cconf"))
	})
}

// TestPredicateConformance runs the predicate-wait battery over the
// cluster: wait.Sum/Min/KOfN combinators must behave identically when
// their member counters live on different nodes.
func TestPredicateConformance(t *testing.T) {
	addrs, _ := startNodes(t, 3)
	c := dialCluster(t, addrs)
	countertest.RunPredicates(t, func(t *testing.T) counter.Interface {
		return c.Counter(countertest.FreshName("cpred"))
	})
}

// TestSentinelsParkNoGoroutine arms a thousand sentinels on a cluster
// counter — the client and all three nodes in one process — and asserts
// the goroutine count stays flat: a cluster sentinel is one entry in
// the home node's pooled client, never a goroutine. One increment fires
// them all.
func TestSentinelsParkNoGoroutine(t *testing.T) {
	addrs, _ := startNodes(t, 3)
	c := dialCluster(t, addrs)
	ctr := c.Counter(countertest.FreshName("csentfan"))
	ctr.Increment(1)
	ctr.Check(1) // settle the route and both sides' machinery

	const sentinels = 1000
	baseline := runtime.NumGoroutine()
	var fired atomic.Int64
	all := make(chan struct{})
	for i := 0; i < sentinels; i++ {
		if _, armed := core.Sentinel(ctr, uint64(i+3), func() {
			if fired.Add(1) == sentinels {
				close(all)
			}
		}); !armed {
			t.Fatalf("Sentinel(%d) not armed", i+3)
		}
	}
	ctr.Increment(1)
	ctr.Check(2) // fence: the home has parked every sentinel sent before it
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines = %d with %d armed sentinels (baseline %d)", n, sentinels, baseline)
	}
	ctr.Increment(sentinels)
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d sentinels fired", fired.Load(), sentinels)
	}
	if w := ctr.Watermark(); w < sentinels+2 {
		t.Fatalf("watermark = %d after every sentinel fired, want >= %d", w, sentinels+2)
	}
}

// TestPoisonedClientSentinelNeverFires is the cluster twin of the remote
// regression: once an overflowing increment has poisoned the home's
// pooled client, a predicate wait over a counter homed there falls back
// to sentinels, which must arm and never fire rather than panic.
func TestPoisonedClientSentinelNeverFires(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	c := dialCluster(t, addrs)
	o := c.Counter(nameOn(t, c, addrs[0], "cpoison"))
	o.Increment(^uint64(0) - 1)
	o.Check(^uint64(0) - 1)
	o.Increment(5) // overflows on the home node
	for deadline := time.Now().Add(5 * time.Second); o.TryIncrement(1) == nil; {
		if time.Now().After(deadline) {
			t.Fatal("home client never poisoned after an overflowing increment")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	ctr := c.Counter(nameOn(t, c, addrs[0], "cpoison"))
	if err := counter.WaitFor(ctx, wait.Sum(ctr).AtLeast(10)); err != context.DeadlineExceeded {
		t.Fatalf("WaitFor over a poisoned home = %v, want DeadlineExceeded", err)
	}
}

// TestSentinelCountsNoCheck: arming a sentinel is no Check, in a
// cluster as in-process and on one node: neither a sentinel the
// cluster's watermark already covers nor one the home node parks
// changes Suspends or ImmediateChecks.
func TestSentinelCountsNoCheck(t *testing.T) {
	addrs, _ := startNodes(t, 1)
	c := dialCluster(t, addrs)
	ctr := c.Counter(countertest.FreshName("csentcount"))
	ctr.Increment(3)
	ctr.Check(3) // raises the cluster's watermark to 3
	s0 := ctr.Stats()
	if _, armed := core.Sentinel(ctr, 2, func() {}); armed {
		t.Fatal("Sentinel(2) armed although the watermark covers level 2")
	}
	if s := ctr.Stats(); s.ImmediateChecks != s0.ImmediateChecks {
		t.Fatalf("ImmediateChecks %d after a covered Sentinel, want %d unchanged", s.ImmediateChecks, s0.ImmediateChecks)
	}
	if _, armed := core.Sentinel(ctr, 5, func() {}); !armed {
		t.Fatal("Sentinel(5) not armed above the watermark")
	}
	if s := ctr.Stats(); s.Suspends != s0.Suspends || s.ImmediateChecks != s0.ImmediateChecks {
		t.Fatalf("after a parked Sentinel: Suspends %d, ImmediateChecks %d; want %d, %d unchanged",
			s.Suspends, s.ImmediateChecks, s0.Suspends, s0.ImmediateChecks)
	}
}

// TestPlacementDeterministic pins what makes coordination-free routing
// sound: placement is a pure function of the member list — two clusters
// agree name by name even when one was dialed with the list reversed —
// and the placement scores spread names over every member.
func TestPlacementDeterministic(t *testing.T) {
	addrs, _ := startNodes(t, 3)
	c1 := dialCluster(t, addrs)
	rev := []string{addrs[2], addrs[1], addrs[0]}
	c2 := dialCluster(t, rev)

	perNode := map[string]int{}
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("placement-%d", i)
		a1, ok1 := c1.NodeFor(name)
		a2, ok2 := c2.NodeFor(name)
		if !ok1 || !ok2 {
			t.Fatal("NodeFor reported no live nodes on a healthy cluster")
		}
		if a1 != a2 {
			t.Fatalf("placement disagrees for %q: %s (list order) vs %s (reversed list)", name, a1, a2)
		}
		perNode[a1]++
	}
	if len(perNode) != 3 {
		t.Fatalf("256 names landed on %d of 3 nodes: %v", len(perNode), perNode)
	}
}

// TestDialClusterFailureClosesDialedMembers: a member that refuses its
// dial fails DialCluster, and the pooled clients already dialed to the
// members before it are closed, not leaked with their goroutines.
func TestDialClusterFailureClosesDialedMembers(t *testing.T) {
	live, _ := startNode(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := lis.Addr().String()
	lis.Close()

	baseline := runtime.NumGoroutine()
	c, err := cluster.DialCluster([]string{live, refused}, cluster.WithPoolSize(2))
	if err == nil {
		c.Close()
		t.Fatalf("DialCluster with %s refusing succeeded", refused)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the failed dial, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCountersShardAndShare pins both halves of the tentpole's routing:
// different names really land on different nodes (checked above), and
// the same name through two independent cluster clients is one counter.
func TestCountersShardAndShare(t *testing.T) {
	addrs, _ := startNodes(t, 3)
	a := dialCluster(t, addrs)
	b := dialCluster(t, addrs)
	name := countertest.FreshName("cshared")
	done := make(chan struct{})
	go func() {
		b.Counter(name).Check(3)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	a.Counter(name).Increment(3)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("b never observed a's increments through the cluster")
	}
}

// TestKillNodeExactlyOnce is the acceptance test for failover: three
// loopback nodes, eight writers hammering 40 names (>= 10^4 increments
// total), one node killed mid-stream. Every name must end at exactly
// the number of increments issued to it — nothing lost with the dead
// node's connections, nothing doubled by the ledger replay — verified
// through fresh single-node clients against each surviving home. The
// client process must also shed every goroutine the dead node's pool
// and the cluster held.
func TestKillNodeExactlyOnce(t *testing.T) {
	const (
		names     = 40
		writers   = 8
		perWriter = 1500 // 12000 increments total
		killAfter = perWriter / 4
		poolSize  = 2
	)
	addrs, kills := startNodes(t, 3)

	baseline := runtime.NumGoroutine()
	c := dialCluster(t, addrs,
		cluster.WithPoolSize(poolSize),
		cluster.WithFailAfter(3),
		cluster.WithBackoff(time.Millisecond, 5*time.Millisecond))

	ctrs := make([]*cluster.Counter, names)
	for i := range ctrs {
		ctrs[i] = c.Counter(countertest.FreshName("kill"))
	}
	victim := 1
	victimAddr := addrs[victim]

	var wg sync.WaitGroup
	totals := make([][names]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				if w == 0 && k == killAfter {
					kills[victim]()
				}
				i := (w + k) % names
				ctrs[i].Increment(1)
				totals[w][i]++
			}
		}(w)
	}
	wg.Wait()

	// The writers are pipelined and may outrun the failure budget; the
	// detection itself must land within the reconnect schedule.
	for end := time.Now().Add(10 * time.Second); ; {
		if live := c.Live(); len(live) == 2 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("Live() = %v after killing %s, want the 2 survivors", c.Live(), victimAddr)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Verify finals through fresh, independent single-node clients: the
	// cluster's own view must match what the surviving servers actually
	// hold.
	verifiers := map[string]*remote.Client{}
	defer func() {
		for _, vc := range verifiers {
			vc.Close()
		}
	}()
	for i, ctr := range ctrs {
		var want uint64
		for w := 0; w < writers; w++ {
			want += totals[w][i]
		}
		name := fmt.Sprintf("kill counter %d (%s)", i, ctr.Name())
		if got := ctr.Contribution(); got != want {
			t.Fatalf("%s: ledger = %d, want %d", name, got, want)
		}
		home, ok := c.NodeFor(ctr.Name())
		if !ok {
			t.Fatalf("%s: no live home", name)
		}
		if home == victimAddr {
			t.Fatalf("%s: still routed to the killed node %s", name, victimAddr)
		}
		vc := verifiers[home]
		if vc == nil {
			var err error
			vc, err = remote.Dial(home)
			if err != nil {
				t.Fatal(err)
			}
			verifiers[home] = vc
		}
		rc := vc.Counter(ctr.Name())
		if !rc.WaitTimeout(want, 10*time.Second) {
			t.Fatalf("%s: value below %d on %s — increments lost in the failover", name, want, home)
		}
		if rc.WaitTimeout(want+1, 20*time.Millisecond) {
			t.Fatalf("%s: value above %d on %s — increments double-applied by the replay", name, want, home)
		}
	}
	for _, vc := range verifiers {
		vc.Close()
	}
	verifiers = map[string]*remote.Client{}

	c.Close()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestParkedWaitSurvivesFailover parks a waiter on a name homed on the
// node about to die: the wait must ride the failover — re-issued
// against the successor, where the ledger replays — and release when
// the remaining increments arrive there.
func TestParkedWaitSurvivesFailover(t *testing.T) {
	addrs, kills := startNodes(t, 2)
	c := dialCluster(t, addrs,
		cluster.WithFailAfter(3),
		cluster.WithBackoff(time.Millisecond, 5*time.Millisecond))

	name := nameOn(t, c, addrs[0], "parked")
	ctr := c.Counter(name)
	ctr.Increment(60)
	ctr.Check(60) // applied on the doomed node before it dies

	released := make(chan struct{})
	go func() {
		ctr.Check(100)
		close(released)
	}()
	time.Sleep(50 * time.Millisecond) // let it park on node 0
	kills[0]()

	// Wait for the failover to land, then supply the missing 40: the
	// parked waiter needs the replayed 60 plus these on the successor.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if live := c.Live(); len(live) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node death never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctr.Increment(40)
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("parked Check(100) never released after failover + remaining increments")
	}
	if home, _ := c.NodeFor(name); home != addrs[1] {
		t.Fatalf("NodeFor(%q) = %s after failover, want successor %s", name, home, addrs[1])
	}
}

// TestWaitOnlyCounterSurvivesFailover: a counter this Cluster only
// waits on has no ledger to replay, but its cached route still points
// into the dead member's pool. The failover must clear that route too,
// or the re-issued wait would keep landing on the closed pool instead
// of the name's new home.
func TestWaitOnlyCounterSurvivesFailover(t *testing.T) {
	addrs, kills := startNodes(t, 2)
	c := dialCluster(t, addrs,
		cluster.WithFailAfter(3),
		cluster.WithBackoff(time.Millisecond, 5*time.Millisecond))

	name := nameOn(t, c, addrs[0], "waitonly")
	ctr := c.Counter(name)
	released := make(chan error, 1)
	go func() { released <- ctr.CheckContext(context.Background(), 1) }()
	// Stats caches the route and answers behind the parked OpCheck.
	for deadline := time.Now().Add(5 * time.Second); ctr.Stats().Suspends == 0; {
		if time.Now().After(deadline) {
			t.Fatal("Check(1) never parked on node 0")
		}
		time.Sleep(time.Millisecond)
	}
	kills[0]()

	for deadline := time.Now().Add(5 * time.Second); len(c.Live()) != 1; {
		if time.Now().After(deadline) {
			t.Fatal("node death never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	vc, err := remote.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	vc.Counter(name).Increment(1)
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("CheckContext(1) = %v after failover, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait-only Check(1) never released on the new home")
	}
}

// TestRestartedNodeIsRetired pins the boot-epoch path: a node that dies
// and comes straight back on the same address — before the failure
// budget trips — is a fresh instance with empty counters. The cluster
// must detect the epoch change, retire the member, and replay the
// ledger to the successor, exactly as if the node had stayed dark.
func TestRestartedNodeIsRetired(t *testing.T) {
	addrs, kills := startNodes(t, 2)
	c := dialCluster(t, addrs,
		cluster.WithFailAfter(1<<30), // never trip the budget: only the epoch may retire it
		cluster.WithBackoff(time.Millisecond, 10*time.Millisecond))

	name := nameOn(t, c, addrs[0], "restart")
	ctr := c.Counter(name)
	ctr.Increment(500)
	ctr.Check(500) // acknowledged state that a plain session resume cannot restore

	kills[0]()
	// Rebind the same address with a fresh server: same node identity to
	// TCP, different boot epoch to the protocol.
	var lis net.Listener
	var err error
	for end := time.Now().Add(5 * time.Second); ; {
		lis, err = net.Listen("tcp", addrs[0])
		if err == nil {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("rebinding %s: %v", addrs[0], err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s2 := server.New()
	go s2.Serve(lis)
	t.Cleanup(func() { lis.Close(); s2.Close() })

	deadline := time.Now().Add(10 * time.Second)
	for {
		if home, ok := c.NodeFor(name); ok && home == addrs[1] {
			break
		}
		if time.Now().After(deadline) {
			home, _ := c.NodeFor(name)
			t.Fatalf("restarted node never retired: NodeFor(%q) = %s, want %s", name, home, addrs[1])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The successor must hold exactly the replayed 500 — and keep
	// counting from there.
	vc, err := remote.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	rc := vc.Counter(name)
	if !rc.WaitTimeout(500, 10*time.Second) {
		t.Fatal("ledger not replayed to the successor after the restart was detected")
	}
	if rc.WaitTimeout(501, 20*time.Millisecond) {
		t.Fatal("successor above the ledger: restart replay double-applied")
	}
	ctr.Increment(1)
	if !rc.WaitTimeout(501, 10*time.Second) {
		t.Fatal("post-failover increment did not reach the successor")
	}
}

// TestLastNodeDeathSurfacesErrNoNodes pins the end of the line: when
// every member is dead, TryIncrement reports ErrNoNodes rather than
// silently growing a ledger nothing will ever replay.
func TestLastNodeDeathSurfacesErrNoNodes(t *testing.T) {
	addrs, kills := startNodes(t, 1)
	c := dialCluster(t, addrs,
		cluster.WithFailAfter(2),
		cluster.WithBackoff(time.Millisecond, 5*time.Millisecond))
	ctr := c.Counter(countertest.FreshName("lastnode"))
	ctr.Increment(1)
	kills[0]()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ctr.TryIncrement(1); err == cluster.ErrNoNodes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("TryIncrement never surfaced ErrNoNodes after the last node died")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
