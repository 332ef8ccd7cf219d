//go:build !race

package server

import (
	"bufio"
	"bytes"
	"testing"

	"monotonic/internal/wire"
)

// parkedCheckAllocs is what one OpCheck costs to park on a fresh level
// and wake: the wake closure, the engine's sentinel hook, its cancel
// closure and the level's node. The wait-table entry is stored by
// value, so it adds none.
const parkedCheckAllocs = 4

// TestSteadyStateAllocs pins the server's steady-state frame paths at
// zero heap allocations per frame: an OpIncrement on a known name
// (decode, name resolution, dedup, apply) with the OpIncAck it earns
// queued and drained the way writeLoop drains it, and an OpWake queued
// by wake. It also pins a parked OpCheck, woken by the next
// OpIncrement, at parkedCheckAllocs. (The race detector inflates
// allocation counts, hence the build tag.)
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

	const wakes = 1000
	for id := uint64(1); id <= wakes+1; id++ {
		c.waits[id] = wait{}
	}
	id := uint64(0)
	n = testing.AllocsPerRun(wakes, func() {
		id++
		c.wake(id, 1)
		drain()
	})
	if n != 0 {
		t.Errorf("OpWake out: %v allocs per frame, want 0", n)
	}
	if len(c.waits) != 0 {
		t.Fatalf("%d waits left after waking all of them", len(c.waits))
	}

	// Each run parks a Check one above the value, then sends the
	// Increment that reaches it: the wake and the ack drain together.
	n = testing.AllocsPerRun(1000, func() {
		in = wire.Append(in[:0], &wire.Frame{Op: wire.OpCheck, Name: "jobs", ID: 1, Level: seq + 1})
		seq++
		in = wire.Append(in, &wire.Frame{Op: wire.OpIncrement, Name: "jobs", Seq: seq, Amount: 1})
		rd.Reset(in)
		br.Reset(rd)
		for br.Buffered() > 0 || rd.Len() > 0 {
			if err := c.serve(br); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.waits) != 0 {
			t.Fatal("the increment did not wake the parked check")
		}
		drain()
	})
	if n != parkedCheckAllocs {
		t.Errorf("OpCheck parked and woken by OpIncrement: %v allocs, want %d", n, parkedCheckAllocs)
	}
	if v := h.c.Value(); v != seq {
		t.Fatalf("value = %d after %d increments", v, seq)
	}
}
