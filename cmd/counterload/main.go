// Command counterload drives a counterd cluster with a synthetic
// synchronization load: many writer goroutines incrementing a
// population of named counters placed over the members by rendezvous
// hashing, and a large number of waiter sessions — each one parked wait
// at its counter's exact final value — multiplexed over the cluster's
// pooled connections. It reports the aggregate increment rate (measured
// to application at the home node, not to enqueue), the release wave,
// and how the names spread over the members.
//
// Against live servers:
//
//	counterd -addr :7667 &  counterd -addr :7668 &  counterd -addr :7669 &
//	counterload -nodes localhost:7667,localhost:7668,localhost:7669 \
//	    -sessions 10000 -increments 100000
//
// Self-hosted (loopback nodes in this process, the E26 arrangement):
//
//	counterload -local 4 -sessions 10000 -increments 100000
//
// Sessions are cheap on the wire: each is one registered wait sharing
// its pool connection's reader/flusher pair, so 10^4-10^5 sessions cost
// frames, not per-session connections — the same discipline the
// in-process engine keeps (no goroutine per wait server-side).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"monotonic/counter/cluster"
	"monotonic/internal/server"
)

func main() {
	var (
		nodes      = flag.String("nodes", "", "comma-separated counterd addresses (empty: self-host -local nodes)")
		local      = flag.Int("local", 3, "number of loopback in-process nodes when -nodes is empty")
		pool       = flag.Int("pool", 4, "connections per node")
		names      = flag.Int("names", 256, "counter names to spread over the cluster")
		sessions   = flag.Int("sessions", 10000, "waiter sessions to park (each one wait at its counter's final value)")
		increments = flag.Int("increments", 100000, "total increments to issue")
		writers    = flag.Int("writers", 16, "concurrent writer goroutines")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "counterload: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if *names < 1 || *writers < 1 || *increments < *writers || *sessions < 0 {
		fmt.Fprintln(os.Stderr, "counterload: need names >= 1, writers >= 1, increments >= writers")
		os.Exit(2)
	}

	var addrs []string
	if *nodes != "" {
		for _, a := range strings.Split(*nodes, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	} else {
		for i := 0; i < *local; i++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "counterload: %v\n", err)
				os.Exit(1)
			}
			s := server.New()
			go s.Serve(lis)
			defer s.Close()
			addrs = append(addrs, lis.Addr().String())
		}
		fmt.Printf("self-hosting %d loopback nodes\n", *local)
	}

	c, err := cluster.DialCluster(addrs, cluster.WithPoolSize(*pool))
	if err != nil {
		fmt.Fprintf(os.Stderr, "counterload: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	// Placement census: how the name population spreads over the members.
	run := time.Now().UnixNano()
	name := func(i int) string { return fmt.Sprintf("load-%d-%d", run, i) }
	perNode := map[string]int{}
	ctrs := make([]*cluster.Counter, *names)
	for i := range ctrs {
		ctrs[i] = c.Counter(name(i))
		if addr, ok := c.NodeFor(name(i)); ok {
			perNode[addr]++
		}
	}
	fmt.Printf("placement over %d node(s):\n", len(addrs))
	for _, a := range addrs {
		fmt.Printf("  %-22s %d names\n", a, perNode[a])
	}

	// Final value per name under round-robin writing, so each session can
	// park at the exact level its counter will end on.
	perWriter := *increments / *writers
	total := perWriter * *writers
	finals := make([]uint64, *names)
	for w := 0; w < *writers; w++ {
		for k := 0; k < perWriter; k++ {
			finals[(w+k)%*names]++
		}
	}

	fmt.Printf("parking %d waiter sessions over %d pooled connections...\n", *sessions, len(addrs)**pool)
	var parked, released sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		parked.Add(1)
		released.Add(1)
		go func(i int) {
			defer released.Done()
			ctr := ctrs[i%*names]
			level := finals[i%*names]
			parked.Done()
			ctr.Check(level)
		}(i)
	}
	parked.Wait()

	fmt.Printf("issuing %d increments from %d writers over %d names...\n", total, *writers, *names)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				ctrs[(w+k)%*names].Increment(1)
			}
		}(w)
	}
	wg.Wait()
	enqueued := time.Since(start)
	for i, ctr := range ctrs {
		ctr.Check(finals[i]) // applied at the home, not merely queued
	}
	applied := time.Since(start)
	released.Wait()
	lastWake := time.Since(start)

	fmt.Printf("\n%d increments: enqueued in %v, applied in %v (%.0f increments/sec aggregate)\n",
		total, enqueued.Round(time.Millisecond), applied.Round(time.Millisecond),
		float64(total)/applied.Seconds())
	fmt.Printf("%d sessions released, last wake %v after start\n", *sessions, lastWake.Round(time.Millisecond))
	if live := c.Live(); len(live) != len(addrs) {
		fmt.Printf("WARNING: only %d of %d nodes still live: %v\n", len(live), len(addrs), live)
	}
}
