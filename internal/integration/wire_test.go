package integration_test

import (
	"math"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"monotonic/counter/countertest"
	"monotonic/counter/remote"
	"monotonic/internal/core"
	"monotonic/internal/server"
	"monotonic/internal/stencil"
)

// closingConn is a client link that closes itself after its k-th
// write, once that write has gone out: counterd applies the write's
// increments, but their acks are lost with the link, so the client
// reconnects and re-sends them, and counterd must drop them as
// duplicates.
type closingConn struct {
	net.Conn
	k      int64
	writes atomic.Int64
}

func (c *closingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.writes.Add(1) == c.k {
		c.Conn.Close()
	}
	return n, err
}

// TestStencilOverTheWire runs the section 5.1 ragged stencil on counters
// of one remote client whose link closes itself after every fifth write.
// Section 6 makes the program's result independent of the schedule, so
// every run must equal the sequential one bit for bit: an increment
// applied twice lets a neighbour's Check pass early and its state be
// read out of turn, and an increment lost wedges the run. The threads
// share one client, so the race detector sees each thread's writes
// reach the next through the client's lock.
func TestStencilOverTheWire(t *testing.T) {
	const cells, steps, runs = 12, 20, 20
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	go s.Serve(lis)
	defer s.Close()
	var dials atomic.Int64
	cl, err := remote.Dial(lis.Addr().String(),
		remote.WithBackoff(time.Millisecond, 5*time.Millisecond),
		remote.WithDialer(func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials.Add(1)
			return &closingConn{Conn: nc, k: 5}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	wedged := false
	defer func() {
		if !wedged { // closing would panic a wedged run's Checks with ErrClosed
			cl.Close()
		}
	}()

	init := stencil.InitialRod(cells)
	want := stencil.RunSequential(init, steps, stencil.Heat)
	newCounter := func() core.Monotonic { return cl.Counter(countertest.FreshName("stencil")) }
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for run := range runs {
		before := dials.Load()
		done := make(chan []float64, 1)
		go func() { done <- stencil.RunCounter(init, steps, stencil.Heat, nil, newCounter) }()
		select {
		case got := <-done:
			if !slices.EqualFunc(got, want, sameBits) {
				t.Fatalf("run %d: got %v, want the sequential %v", run, got, want)
			}
		case <-time.After(60 * time.Second):
			wedged = true
			t.Fatalf("run %d wedged: an increment was lost", run)
		}
		if dials.Load() == before {
			t.Fatalf("run %d: the link never closed", run)
		}
	}
	t.Logf("%d runs, %d reconnects", runs, dials.Load()-1)
}
