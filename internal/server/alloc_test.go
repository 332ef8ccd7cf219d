//go:build !race

package server

import (
	"bufio"
	"bytes"
	"testing"

	"monotonic/internal/wire"
)

// TestSteadyStateAllocs pins the server's steady-state frame paths at
// zero heap allocations per frame: an OpIncrement on a known name
// (decode, name resolution, dedup, apply) with the OpIncAck it earns
// queued and drained the way writeLoop drains it, and an OpWake queued
// by resolveWake. (The race detector inflates allocation counts, hence
// the build tag.)
func TestSteadyStateAllocs(t *testing.T) {
	c := newConn(New(), nil)
	if err := c.handle(&wire.Frame{Op: wire.OpHello, Seq: wire.Version}); err != nil {
		t.Fatal(err)
	}
	var spare []byte
	drain := func() {
		if len(c.wq) == 0 {
			t.Fatal("nothing queued")
		}
		spare, _ = c.drain(spare)
	}
	drain() // the Welcome

	in := make([]byte, 0, 64)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var seq uint64
	n := testing.AllocsPerRun(1000, func() {
		seq++
		in = wire.Append(in[:0], &wire.Frame{Op: wire.OpIncrement, Name: "jobs", Seq: seq, Amount: 1})
		rd.Reset(in)
		br.Reset(rd)
		if err := c.serve(br); err != nil {
			t.Fatal(err)
		}
		drain()
	})
	if n != 0 {
		t.Errorf("OpIncrement in, OpIncAck out: %v allocs per frame, want 0", n)
	}
	if ack, _ := wire.Read(bufio.NewReader(bytes.NewReader(spare))); ack.Op != wire.OpIncAck || ack.Seq != seq {
		t.Fatalf("last drain = %+v, want the IncAck for seq %d", ack, seq)
	}
	h, _ := c.hosted("jobs")
	if v := h.c.Value(); v != seq {
		t.Fatalf("value = %d after %d increments", v, seq)
	}

	ws := make([]*waiter, 1001)
	for i := range ws {
		ws[i] = &waiter{level: 1, id: uint64(i + 1), conn: c, host: h, idx: -1}
		c.waits[ws[i].id] = ws[i]
	}
	next := 0
	n = testing.AllocsPerRun(len(ws)-1, func() {
		c.resolveWake(ws[next])
		next++
		drain()
	})
	if n != 0 {
		t.Errorf("OpWake out: %v allocs per frame, want 0", n)
	}
	if len(c.waits) != 0 {
		t.Fatalf("%d waits left after resolving all of them", len(c.waits))
	}
}
