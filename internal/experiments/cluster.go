package experiments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"monotonic/counter/cluster"
	"monotonic/internal/harness"
	"monotonic/internal/server"
)

// startClusterNodes boots n loopback counterd servers and returns their
// addresses plus a teardown.
func startClusterNodes(n int) (addrs []string, stop func()) {
	var closers []func()
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic("E26: " + err.Error())
		}
		srv := server.New()
		go srv.Serve(lis)
		addrs = append(addrs, lis.Addr().String())
		closers = append(closers, func() { srv.Close() })
	}
	return addrs, func() {
		for _, c := range closers {
			c()
		}
	}
}

// clusterThroughput hammers a cluster of the given nodes with writers
// incrementing round-robin over names, then waits until every increment
// is applied at its home (a Check per name at the exact expected final),
// so the clock covers delivery, not just enqueueing. Returns the wall
// time for the whole batch.
func clusterThroughput(addrs []string, names, writers, perWriter int) time.Duration {
	c, err := cluster.DialCluster(addrs, cluster.WithPoolSize(2))
	if err != nil {
		panic("E26: " + err.Error())
	}
	defer c.Close()
	ctrs := make([]*cluster.Counter, names)
	finals := make([]uint64, names)
	for i := range ctrs {
		ctrs[i] = c.Counter(fmt.Sprintf("e26-thr-%d-%d", time.Now().UnixNano(), i))
	}
	for w := 0; w < writers; w++ {
		for k := 0; k < perWriter; k++ {
			finals[(w+k)%names]++
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				ctrs[(w+k)%names].Increment(1)
			}
		}(w)
	}
	wg.Wait()
	for i, ctr := range ctrs {
		ctr.Check(finals[i])
	}
	return time.Since(start)
}

// clusterFanout parks waiters spread over names (and so over nodes,
// through placement), then satisfies every name with one increment per
// name and times the interval from the first satisfying increment to
// the last wake delivered — the cluster-wide analogue of E22's 1→N
// fan-out, with the wake load sharded over the member servers.
func clusterFanout(addrs []string, names, waiters int) time.Duration {
	c, err := cluster.DialCluster(addrs, cluster.WithPoolSize(2))
	if err != nil {
		panic("E26: " + err.Error())
	}
	defer c.Close()
	ctrs := make([]*cluster.Counter, names)
	for i := range ctrs {
		ctrs[i] = c.Counter(fmt.Sprintf("e26-fan-%d-%d", time.Now().UnixNano(), i))
		ctrs[i].Increment(1)
		ctrs[i].Check(1) // settle sessions into a steady state
	}

	var parked, released sync.WaitGroup
	for i := 0; i < waiters; i++ {
		parked.Add(1)
		released.Add(1)
		go func(i int) {
			defer released.Done()
			ctr := ctrs[i%names]
			parked.Done()
			ctr.Check(2)
		}(i)
	}
	parked.Wait()
	// The waiters have issued their Checks; a Stats round trip per name
	// rides the same pipeline, so its reply proves registration reached
	// the home server.
	for _, ctr := range ctrs {
		ctr.Stats()
	}

	start := time.Now()
	for _, ctr := range ctrs {
		ctr.Increment(1) // value 2: releases every waiter on this name
	}
	released.Wait()
	return time.Since(start)
}

// E26: the counter service scaled out — rendezvous-hash sharded names
// over N counterd nodes, measured as aggregate increment throughput and
// cluster-wide wake fan-out at 1, 2, and 4 in-process nodes.
func init() {
	register(Experiment{
		ID:    "E26",
		Title: "Cluster counters: aggregate increment throughput and wake fan-out vs node count",
		Paper: "Section 7 prices a counter in wakes per satisfied level and storage per distinct " +
			"level — nothing in the cost model is per-process or per-machine, and Section 6's " +
			"determinacy argument needs only monotonicity, which survives sharding names over " +
			"nodes because each name still lives behind exactly one server at a time. This " +
			"experiment measures what the reproduction's cluster layer (counter/cluster) buys: " +
			"the same increment batch and the same fan-out released through 1, 2, and 4 " +
			"counterd nodes, names placed by rendezvous hashing.",
		Notes: "Names shard by rendezvous hashing over the member list (each name lives on the " +
			"member with the highest hash score for it), so the per-node " +
			"frame streams, waitlist engines, and wake fan-outs are independent — on multi-core " +
			"hosts the aggregate increment rate should grow with node count until cores run out. " +
			"On a single-CPU host every node shares the one core and the curve records " +
			"scheduling overhead instead of speedup (the report's num_cpu field says which " +
			"regime a row comes from; the GOMAXPROCS sweep in BENCH_9.json records the same " +
			"tables per proc count). The fan-out rows split one release wave over the members: " +
			"each node wakes only the waiters of its own names, so no single server's dispatch " +
			"loop carries the whole wave.",
		Run: func(cfg Config) []*harness.Table {
			const names = 64
			writers, perWriter := 8, 2500
			fanWaiters := 2000
			if cfg.Quick {
				writers, perWriter = 4, 250
				fanWaiters = 300
			}

			thr := harness.NewTable(
				fmt.Sprintf("Aggregate increment throughput: %d writers, %d names, %d increments, applied at the home before the clock stops",
					writers, names, writers*perWriter),
				"nodes", "wall", "increments/sec")
			fan := harness.NewTable(
				fmt.Sprintf("Cluster-wide wake fan-out: %d waiters over %d names, one releasing increment per name, time to last wake",
					fanWaiters, names),
				"nodes", "time to last wake")
			for _, nodes := range []int{1, 2, 4} {
				addrs, stop := startClusterNodes(nodes)
				d := clusterThroughput(addrs, names, writers, perWriter)
				rate := float64(writers*perWriter) / d.Seconds()
				thr.Add(harness.I(nodes), harness.Dur(d), harness.F(rate, 0))
				fd := clusterFanout(addrs, names, fanWaiters)
				fan.Add(harness.I(nodes), harness.Dur(fd))
				stop()
			}
			return []*harness.Table{thr, fan}
		},
	})
}
