package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"monotonic/counter"
	"monotonic/counter/remote"
	"monotonic/counter/wait"
	"monotonic/internal/harness"
	"monotonic/internal/server"
)

// startWireNode boots one loopback counterd for E27 and returns the
// server handle (for the parked-predicate-entry census) with its address.
func startWireNode() (*server.Server, string, func()) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("E27: " + err.Error())
	}
	srv := server.New()
	go srv.Serve(lis)
	return srv, lis.Addr().String(), func() { srv.Close() }
}

// quorumSessions parks `sessions` independent client sessions on 8-of-8
// quorums over the SAME eight hosted counters, asserts the server parks
// exactly one parked predicate entry per session (not one per watched
// counter), hammers one already-satisfied member with `churn`
// increments from a separate client — asserting every waiting session
// pays ZERO frames in either direction for them — and then completes
// the quorum, timing first completing increment to last waiter resumed.
func quorumSessions(s *server.Server, addr string, sessions, churn int) (entries int, waiterFrames uint64, release time.Duration) {
	const quorum = 8
	names := make([]string, quorum)
	for i := range names {
		names[i] = fmt.Sprintf("e27-q%d-%d-%d", sessions, time.Now().UnixNano(), i)
	}

	waiters := make([]*remote.Client, sessions)
	var wg sync.WaitGroup
	for w := range waiters {
		cl, err := remote.Dial(addr)
		if err != nil {
			panic("E27: " + err.Error())
		}
		waiters[w] = cl
		cs := make([]counter.Interface, quorum)
		for i, name := range names {
			cs[i] = cl.Counter(name)
		}
		cond := wait.KOfN(cs, quorum, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cond.Wait(context.Background()) // background ctx: never errs
		}()
	}
	defer func() {
		for _, cl := range waiters {
			cl.Close()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for s.PredicateWaits() < sessions && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	entries = s.PredicateWaits()
	if entries != sessions {
		panic(fmt.Sprintf("experiments: E27 parked-predicate-entry bound violated: %d parked entries for %d sessions watching %d counters each (want exactly 1 per session)",
			entries, sessions, quorum))
	}

	inc, err := remote.Dial(addr)
	if err != nil {
		panic("E27: " + err.Error())
	}
	defer inc.Close()

	type frames struct{ sent, recv uint64 }
	before := make([]frames, sessions)
	for w, cl := range waiters {
		before[w].sent, before[w].recv = cl.WireStats()
	}
	member0 := inc.Counter(names[0])
	for i := 0; i < churn; i++ {
		member0.Increment(1)
	}
	member0.Check(uint64(churn)) // fence: every increment applied at the server
	for w, cl := range waiters {
		sent, recv := cl.WireStats()
		waiterFrames += (sent - before[w].sent) + (recv - before[w].recv)
	}
	if waiterFrames != 0 {
		panic(fmt.Sprintf("experiments: E27 zero-round-trip bound violated: waiting sessions paid %d frames for %d non-flipping increments (want 0)",
			waiterFrames, churn))
	}

	// Complete the quorum: members 1..6 first, then time the 8th.
	for _, name := range names[1 : quorum-1] {
		inc.Counter(name).Increment(1)
	}
	settle(1)
	start := time.Now()
	inc.Counter(names[quorum-1]).Increment(1)
	wg.Wait()
	return entries, waiterFrames, time.Since(start)
}

// sumWireCost measures the waiter's frame bill for one sum predicate as
// a second client walks the sum toward the target: under wire v3 the
// predicate evaluates server-side (the walk costs the waiter nothing);
// under v2 every frontier crossing fires a sentinel whose wire-level
// wait the client must re-park. Returns frames paid during the walk,
// frames for the whole arm-to-wake lifecycle, and the release latency.
func sumWireCost(addr string, proto uint64, target, step uint64) (walkFrames, totalFrames uint64, release time.Duration) {
	waiter, err := remote.Dial(addr, remote.WithProtocol(proto))
	if err != nil {
		panic("E27: " + err.Error())
	}
	defer waiter.Close()
	inc, err := remote.Dial(addr)
	if err != nil {
		panic("E27: " + err.Error())
	}
	defer inc.Close()

	na := fmt.Sprintf("e27-s%d-%d-a", proto, time.Now().UnixNano())
	nb := fmt.Sprintf("e27-s%d-%d-b", proto, time.Now().UnixNano())
	base, baseRecv := waiter.WireStats()

	cond := wait.Sum(waiter.Counter(na), waiter.Counter(nb)).AtLeast(target)
	done := make(chan struct{})
	go func() {
		_ = cond.Wait(context.Background())
		close(done)
	}()
	// Let the registration (v3: one frame; v2: per-counter waits) land.
	settle(1)
	time.Sleep(50 * time.Millisecond)

	s0, r0 := waiter.WireStats()
	a := inc.Counter(na)
	for v := step; v < target; v += step {
		a.Increment(step)
	}
	a.Check(target - step) // fence: the walk is fully applied
	time.Sleep(50 * time.Millisecond)
	s1, r1 := waiter.WireStats()
	walkFrames = (s1 - s0) + (r1 - r0)
	if proto >= 3 && walkFrames != 0 {
		panic(fmt.Sprintf("experiments: E27 v3 walk bound violated: %d waiter frames while the sum walked to target-%d (want 0)",
			walkFrames, step))
	}

	start := time.Now()
	a.Increment(step) // sum reaches the target
	<-done
	release = time.Since(start)
	s2, r2 := waiter.WireStats()
	totalFrames = (s2 - base) + (r2 - baseRecv)
	return walkFrames, totalFrames, release
}

// E27: predicate waits over the wire — E24's storage and no-wake bounds
// pushed across the process boundary by the wire v3 OpWaitFor frame.
func init() {
	register(Experiment{
		ID:    "E27",
		Title: "Wire v3 predicate waits: one parked predicate entry per session, zero waiter frames per non-flipping increment",
		Paper: "Section 7 prices a counter in wakes per satisfied level and storage per distinct " +
			"level, and section 8's composite conditions extend the price to monotone " +
			"predicates: N waiters on one predicate over m counters share one sentinel per " +
			"counter (E24 pins it in-process). Across a process boundary the same argument " +
			"prices the *wire*: an increment that cannot flip a predicate should cost the " +
			"waiting client zero frames, and a session's whole predicate should park one " +
			"server-side entry, not one wait per watched counter. This experiment measures " +
			"both against a loopback counterd speaking wire v3.",
		Notes: "The parked-predicate-entry census counts server-side predicate registrations across " +
			"all sessions (Server.PredicateWaits): sessions × one 8-counter quorum each must " +
			"park exactly sessions entries — a per-counter design would park 8× that. The " +
			"churn column is the frame bill every waiting session paid (sent + received, " +
			"summed) while a separate client drove 10^4 increments into an already-satisfied " +
			"member: monotone truth cannot regress, so the server's sentinels absorb every " +
			"one and the bill must be zero (asserted at run time, as is the entry census). " +
			"The v2-vs-v3 table walks a two-counter sum to just below its target and counts " +
			"the waiter's frames: under v2 each frontier crossing fires a client sentinel " +
			"that must re-park its wire-level wait (frames grow with crossings); under v3 " +
			"the walk is free and the whole lifecycle costs three frames (register, wake, " +
			"and the incrementer-side fence sharing the session is not counted). Release " +
			"latency is the flip-to-resume interval and should not differ materially — the " +
			"wake path is one frame either way.",
		Run: func(cfg Config) []*harness.Table {
			churn := 10_000
			sessionCounts := []int{1, 8, 32}
			var target, step uint64 = 100_000, 100
			if cfg.Quick {
				churn = 500
				sessionCounts = []int{1, 4}
				target, step = 5_000, 100
			}

			s, addr, stop := startWireNode()
			defer stop()

			ent := harness.NewTable(
				fmt.Sprintf("Server-side quorum census: 8-of-8 quorums, %d non-flipping increments, bounds asserted at run time", churn),
				"sessions", "parked entries", "entries/session", "waiter frames during churn", "release")
			for _, n := range sessionCounts {
				entries, frames, release := quorumSessions(s, addr, n, churn)
				ent.Add(harness.I(n), harness.I(entries), harness.F(float64(entries)/float64(n), 2),
					harness.U(frames), harness.Dur(release))
			}

			wc := harness.NewTable(
				fmt.Sprintf("Waiter wire cost, client-side (v2) vs server-side (v3) evaluation: sum over 2 counters to %d in steps of %d", target, step),
				"protocol", "frames during walk", "frames arm→wake", "release")
			for _, proto := range []uint64{2, 3} {
				walk, total, release := sumWireCost(addr, proto, target, step)
				wc.Add(fmt.Sprintf("v%d", proto), harness.U(walk), harness.U(total), harness.Dur(release))
			}
			return []*harness.Table{ent, wc}
		},
	})
}
