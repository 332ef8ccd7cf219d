package experiments

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"monotonic/counter/remote"
	"monotonic/internal/core"
	"monotonic/internal/harness"
	"monotonic/internal/server"
)

// remoteRTT measures reps Increment→Check round trips against a counter
// behind addr: each iteration publishes one increment and waits for the
// level it establishes, so one sample is one full pipeline-out/wake-back
// exchange.
func remoteRTT(addr string, reps int) harness.Timing {
	cl, err := remote.Dial(addr)
	if err != nil {
		panic("E22: " + err.Error())
	}
	defer cl.Close()
	c := cl.Counter(fmt.Sprintf("e22-rtt-%d", time.Now().UnixNano()))
	level := uint64(0)
	sample := func() {
		level++
		c.Increment(1)
		c.Check(level)
	}
	sample() // warm both sides
	return harness.Measure(reps, sample)
}

// localRTT is the same loop against the in-process sharded engine — the
// floor the wire's cost is compared to.
func localRTT(reps int) harness.Timing {
	c := core.NewSharded()
	level := uint64(0)
	sample := func() {
		level++
		c.Increment(1)
		c.Check(level)
	}
	sample()
	return harness.Measure(reps, sample)
}

// remoteFanout parks waiters remote waits — spread over conns
// connections, all on one level — then times the fan-out from the single
// satisfying Increment, sent by one more client, to the last wake
// delivered. It returns the fan-out duration plus the goroutine
// accounting: the process count with every wait parked, and the count
// before any wait was registered. The server and every client run in
// this process, so the delta covers both sides of the wire. It panics
// unless each waiting client sent one OpCheck for its waits and received
// one OpWake for them (wire frame deltas, the fence's round trip
// excluded): a client's waits on one level share one wire wait.
func remoteFanout(addr string, conns, waiters int) (d time.Duration, parked, before int) {
	dial := func() *remote.Client {
		cl, err := remote.Dial(addr)
		if err != nil {
			panic("E22: " + err.Error())
		}
		return cl
	}
	releaser := dial()
	defer releaser.Close()
	clients := make([]*remote.Client, conns)
	for i := range clients {
		clients[i] = dial()
		defer clients[i].Close()
	}
	name := fmt.Sprintf("e22-fan-%d", time.Now().UnixNano())
	ctr0 := releaser.Counter(name)
	ctr0.Increment(1)
	ctr0.Check(1) // settle all machinery into the baseline
	before = settledGoroutines()

	sent := make([]uint64, conns)
	for i, cl := range clients {
		sent[i], _ = cl.WireStats()
	}
	chans := make([]<-chan error, 0, waiters)
	for i := 0; i < waiters; i++ {
		chans = append(chans, clients[i%conns].Counter(name).CheckChan(2))
	}
	recv := make([]uint64, conns)
	for i, cl := range clients {
		now, _ := cl.WireStats()
		sent[i] = now - sent[i]
		// Fence: a Stats round trip per client travels the same pipeline
		// as its checks, so a reply proves the server registered them all.
		cl.Counter(name).Stats()
		_, recv[i] = cl.WireStats()
	}
	parked = runtime.NumGoroutine()

	start := time.Now()
	ctr0.Increment(1) // value 2: satisfies every parked wait at once
	for _, ch := range chans {
		if err := <-ch; err != nil {
			panic("E22: wait resolved with " + err.Error())
		}
	}
	d = time.Since(start)
	for i, cl := range clients {
		_, now := cl.WireStats()
		if sent[i] != 1 || now-recv[i] != 1 {
			panic(fmt.Sprintf("E22: client %d of %d sent %d frames and received %d for its %d waits on one level, want one OpCheck and one OpWake",
				i, conns, sent[i], now-recv[i], (waiters-i+conns-1)/conns))
		}
	}
	return d, parked, before
}

// settledGoroutines returns the goroutine count once it stops changing:
// the server retires a closed connection's goroutines asynchronously, so
// a baseline taken right after an earlier row closed its clients would
// still count them and hide as many goroutines added later.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// E22: the counter service over the wire — what synchronization costs
// when the counter moves out of the process, and proof that the server
// keeps the engine's no-goroutine-per-wait discipline at scale.
func init() {
	register(Experiment{
		ID:    "E22",
		Title: "Remote counters: loopback RTT and 1→N wake fan-out without per-wait server goroutines",
		Paper: "Section 7's cost model prices a counter in wakes per satisfied level and storage per " +
			"distinct level, never per waiter. Section 6's determinacy argument rests only on " +
			"monotonicity, which holds just as well when the counter lives in another process — " +
			"and monotonicity is also what makes the wire protocol retry-safe (a re-sent Check " +
			"cannot observe a smaller value; sequence numbers dedup re-sent Increments). This " +
			"experiment prices the move: Increment→Check round trips against a loopback counterd " +
			"versus the in-process engine, and the time for one Increment to wake N waiters spread " +
			"over C connections.",
		Notes: "The server parks every remote wait on the shared waitlist engine as a " +
			"goroutine-free sentinel: per connection one reader and one writer goroutine, and " +
			"nothing per counter or per wait — the Increment that satisfies a level runs the " +
			"parked hooks on its own goroutine, and each hook queues its wake frame. The goroutine " +
			"columns assert the bound at run time — parking N waits adds no goroutines (the " +
			"experiment panics if the count with N waits parked exceeds the pre-registration " +
			"baseline plus a small constant of scheduler slack), so a fan-out's cost is frames on " +
			"the wire, not goroutines in the server. Those frames are per connection, not per " +
			"wait: a client's waits on one level join one wait-table entry, so the C connections " +
			"send C OpChecks and receive C OpWakes for the N waits, which each row also asserts at " +
			"run time from the clients' frame tallies (the fence's round trip and the releasing " +
			"increment, sent by one more client, excluded). RTT rows price the wire itself: a remote " +
			"exchange costs loopback-TCP microseconds against the engine's in-process " +
			"nanoseconds, which is the usual three-orders toll for crossing a socket, not a " +
			"property of the counter.",
		Run: func(cfg Config) []*harness.Table {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic("E22: " + err.Error())
			}
			srv := server.New()
			go srv.Serve(lis)
			defer srv.Close()
			addr := lis.Addr().String()

			rttReps := 3000
			fanouts := []struct{ conns, waiters int }{
				{1, 1000},
				{32, 1000},
				{32, 10000},
				{64, 10000},
			}
			if cfg.Quick {
				rttReps = 300
				fanouts = fanouts[:2]
			}

			rtt := harness.NewTable(
				"Increment→Check round trip, one counter, one session (reps="+harness.I(rttReps)+")",
				"path", "median", "min", "max")
			lt := localRTT(rttReps)
			rt := remoteRTT(addr, rttReps)
			rtt.Add("in-process sharded", harness.Dur(lt.Median()), harness.Dur(lt.Min()), harness.Dur(lt.Max()))
			rtt.Add("remote (loopback TCP)", harness.Dur(rt.Median()), harness.Dur(rt.Min()), harness.Dur(rt.Max()))

			fan := harness.NewTable(
				"1→N wake fan-out: N waits on one level across C connections, one Increment, time to last wake",
				"connections", "waiters", "time to last wake", "goroutines (baseline → N parked)", "added")
			for _, f := range fanouts {
				d, parked, before := remoteFanout(addr, f.conns, f.waiters)
				added := parked - before
				// The structural assertion: N parked waits add nothing but
				// scheduler slack — never a goroutine per wait or per
				// counter, on either side of the wire.
				if added > 4 {
					panic(fmt.Sprintf(
						"E22: %d waits parked added %d goroutines (baseline %d → %d); per-wait goroutines leaked",
						f.waiters, added, before, parked))
				}
				fan.Add(harness.I(f.conns), harness.I(f.waiters), harness.Dur(d),
					fmt.Sprintf("%d → %d", before, parked), harness.I(added))
			}
			return []*harness.Table{rtt, fan}
		},
	})
}
