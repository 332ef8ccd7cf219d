package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"monotonic/counter/remote"
	"monotonic/internal/core"
	"monotonic/internal/server"
)

// startNodes starts n loopback counterd servers, closed at cleanup, and
// returns their addresses.
func startNodes(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := server.New()
		go s.Serve(lis)
		t.Cleanup(func() { lis.Close(); s.Close() })
		addrs = append(addrs, lis.Addr().String())
	}
	return addrs
}

// TestRoutedIncrementTakesNoClusterLock: an increment on a counter whose
// route is cached takes only its home client's lock, so it completes
// while another goroutine holds the Cluster's lock.
func TestRoutedIncrementTakesNoClusterLock(t *testing.T) {
	c, err := DialCluster(startNodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctr := c.Counter("routed")
	ctr.Increment(1) // routes the counter and caches the route

	done := make(chan struct{})
	c.mu.Lock()
	go func() {
		ctr.Increment(1)
		close(done)
	}()
	select {
	case <-done:
		c.mu.Unlock()
	case <-time.After(time.Second):
		c.mu.Unlock()
		<-done
		t.Fatal("Increment on a routed counter waited for the Cluster's lock")
	}
	if !ctr.WaitTimeout(2, 10*time.Second) {
		t.Fatal("the increment made under the Cluster's lock never arrived")
	}
}

// kickProbe is a hook whose Fire runs f.
type kickProbe struct {
	core.Hook
	f func()
}

func (p *kickProbe) Fire() { p.f() }

// TestFailoverReplaysClosedLedger: failNode closes the dying member's
// client before it reads the client's ledgers, so increments racing the
// failover on routes loaded before it either entered a ledger first and
// reach the new home through the replay, or are refused with ErrClosed.
// Each new home ends at exactly what the dying client took, and
// Contribution reads that total once Live no longer lists the member.
// A hook parked on the dying client sees the order: Close kicks it
// before anything is replayed.
func TestFailoverReplaysClosedLedger(t *testing.T) {
	addrs := startNodes(t, 2)
	c, err := DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ctrs []*Counter
	for i := 0; len(ctrs) < 8; i++ {
		name := fmt.Sprintf("replay-%d", i)
		if home, _ := c.NodeFor(name); home == addrs[0] {
			ctrs = append(ctrs, c.Counter(name))
		}
	}
	took := make([]uint64, len(ctrs))
	var wg sync.WaitGroup
	for i, ctr := range ctrs {
		ctr.Increment(1)
		stale := ctr.route.Load()
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := uint64(1)
			for stale.TryIncrement(1) == nil {
				n++
			}
			took[i] = n
		}()
	}
	kicked := false
	var replayedAtKick uint64
	probe := &kickProbe{f: func() {
		kicked = true
		for _, ctr := range ctrs {
			replayedAtKick += c.nodes[1].counterFor(ctr.name, ctr.hash).Contribution()
		}
	}}
	probe.Bind(probe)
	if !ctrs[0].ArmHook(1<<62, &probe.Hook) {
		t.Fatal("ArmHook(1<<62) not armed")
	}
	time.Sleep(time.Millisecond)
	c.failNode(c.nodes[0]) // on this goroutine, so the probe's Fire runs here
	wg.Wait()

	if !kicked {
		t.Fatal("closing the dying client never kicked the hook parked on it")
	}
	if replayedAtKick != 0 {
		t.Fatalf("%d replayed to the new home before the dying client closed", replayedAtKick)
	}
	if live := c.Live(); len(live) != 1 || live[0] != addrs[1] {
		t.Fatalf("Live() = %v after failNode, want [%s]", live, addrs[1])
	}
	vc, err := remote.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	for i, ctr := range ctrs {
		want := took[i]
		if got := ctr.Contribution(); got != want {
			t.Fatalf("%s: Contribution() = %d after the failover, want the %d the dying client took", ctr.Name(), got, want)
		}
		rc := vc.Counter(ctr.Name())
		if !rc.WaitTimeout(want, 10*time.Second) {
			t.Fatalf("%s: new home below %d: increments the dying client took were lost", ctr.Name(), want)
		}
		if rc.WaitTimeout(want+1, 20*time.Millisecond) {
			t.Fatalf("%s: new home above %d: the replay double-applied", ctr.Name(), want)
		}
	}
}
