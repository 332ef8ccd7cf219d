//go:build !race

package remote

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"

	"monotonic/internal/wire"
)

// discardConn is a link that swallows every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestSteadyStateAllocs pins the client's steady-state frame paths at
// zero heap allocations per frame: TryIncrement encoding OpIncrements on
// more counters than a small map holds inline, the OpIncAck for them
// decoded and dispatched (which trims the resend queue and counts a
// round trip per counter), and an OpWake decoded and dispatched to its
// wait. The client runs without its goroutines over a link that
// swallows writes. (The race detector inflates allocation counts, hence
// the build tag.)
func TestSteadyStateAllocs(t *testing.T) {
	cl := newClient("", nil)
	cl.nc = discardConn{}
	cl.bw = bufio.NewWriter(cl.nc)
	cs := make([]*Counter, 16)
	for i := range cs {
		cs[i] = cl.Counter(fmt.Sprintf("jobs%d", i))
	}
	c := cs[0]

	in := make([]byte, 0, 64)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	recv := func(f *wire.Frame) {
		in = wire.Append(in[:0], f)
		rd.Reset(in)
		br.Reset(rd)
		g, err := wire.Read(br)
		if err != nil {
			t.Fatal(err)
		}
		cl.dispatch(&g)
	}

	const runs = 1000
	n := testing.AllocsPerRun(runs, func() {
		for _, c := range cs {
			if err := c.TryIncrement(1); err != nil {
				t.Fatal(err)
			}
		}
		recv(&wire.Frame{Op: wire.OpIncAck, Seq: cl.nextSeq})
	})
	if n != 0 {
		t.Errorf("%d OpIncrements out, one OpIncAck in: %v allocs, want 0", len(cs), n)
	}
	if left := len(cl.pending); left != 0 {
		t.Fatalf("%d increments still pending after every one was acked", left)
	}
	for _, c := range cs {
		if got := c.rtts.Load(); got != runs+1 {
			t.Fatalf("%s: RemoteRoundTrips = %d after %d acks, want one per ack", c.name, got, runs+1)
		}
	}

	chans := make([]chan error, runs+1)
	ids := make([]uint64, len(chans))
	for i := range chans {
		var w *wait
		chans[i], w = c.checkChan(uint64(i + 1))
		ids[i] = w.id
	}
	next := 0
	n = testing.AllocsPerRun(runs, func() {
		recv(&wire.Frame{Op: wire.OpWake, ID: ids[next], Level: uint64(next + 1)})
		next++
	})
	if n != 0 {
		t.Errorf("OpWake in: %v allocs per frame, want 0", n)
	}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatalf("wait %d resolved with %v", i, err)
		}
	}
	if got := c.Watermark(); got != runs+1 {
		t.Fatalf("watermark = %d after the last wake, want %d", got, runs+1)
	}
}
