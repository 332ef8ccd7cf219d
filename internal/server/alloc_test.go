//go:build !race

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"monotonic/internal/predicate"
	"monotonic/internal/wire"
)

// parkedCheckAllocs is what one OpCheck costs to park on a fresh level
// and wake: the level's node, the paper's per-level cost unit. The
// wait-table entry, which embeds the engine hook, comes from the
// connection's spare list.
const parkedCheckAllocs = 1

// waitForAllocs is what a 2-of-4 OpWaitFor costs to park and flip once
// the connection has answered one: one node per watched level (4). The
// Cond comes back from the last answered predicate and keeps its slots
// (with their bound hooks), scratch, levels, counters and firer slot,
// and makes no done channel, since only its firer observes it; the
// reader decodes the watch list into the storage of the last one;
// handleWaitFor builds the levels and counters in the connection's own
// scratch, which the Cond copies; and the entry, which is the Cond's
// firer, comes from the spare list.
const waitForAllocs = 4

// TestSteadyStateAllocs pins the server's steady-state frame paths at
// zero heap allocations per frame: an OpIncrement on a known name
// (decode, name resolution, dedup, apply) with the OpIncAck it earns
// queued and drained the way writeLoop drains it, an OpWake queued by
// wake, and a 16-entry OpIncrements on bound slots with its OpIncAck.
// It also pins a parked OpCheck, woken by the next OpIncrement, at
// parkedCheckAllocs, and so several OpChecks sharing one level, since
// each waiter after the first costs nothing; and it pins a 2-of-4
// OpWaitFor parked and flipped. (The race detector inflates allocation
// counts, hence the build tag.)
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

	// Entries parked as armed, with no hook on an engine node, so the
	// runs measure the wake alone.
	const wakes = 1000
	parked := make([]*wait, wakes+1)
	for i := range parked {
		w, err := c.publish(uint64(i+1), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.settle(w, true)
		parked[i] = w
	}
	next := 0
	n = testing.AllocsPerRun(wakes, func() {
		c.wake(parked[next])
		next++
		drain()
	})
	if n != 0 {
		t.Errorf("OpWake out: %v allocs per frame, want 0", n)
	}
	if len(c.waits) != 0 {
		t.Fatalf("%d waits left after waking all of them", len(c.waits))
	}

	// Each run parks checks one above the value, then sends the
	// Increment that reaches them: the wakes and the ack drain
	// together.
	park := func(checks int) float64 {
		return testing.AllocsPerRun(1000, func() {
			in = in[:0]
			for id := 1; id <= checks; id++ {
				in = wire.Append(in, &wire.Frame{Op: wire.OpCheck, Name: "jobs", ID: uint64(id), Level: seq + 1})
			}
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
				t.Fatal("the increment did not wake the parked checks")
			}
			drain()
		})
	}
	if n := park(1); n != parkedCheckAllocs {
		t.Errorf("OpCheck parked and woken by OpIncrement: %v allocs, want %d", n, parkedCheckAllocs)
	}
	const shared = 8
	if n := park(shared); n != parkedCheckAllocs {
		t.Errorf("%d OpChecks parked on one level and woken by OpIncrement: %v allocs, want %d (the level's node)", shared, n, parkedCheckAllocs)
	}
	if v := h.c.Value(); v != seq {
		t.Fatalf("value = %d after %d increments", v, seq)
	}

	// A 2-of-4 OpWaitFor one above the values of four names, flipped by
	// two Increments.
	watch := make([]wire.Watch, 4)
	for i := range watch {
		watch[i].Name = fmt.Sprintf("quorum%d", i)
	}
	var level uint64
	n = testing.AllocsPerRun(1000, func() {
		level++
		for i := range watch {
			watch[i].Level = level
		}
		in = wire.Append(in[:0], &wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: predicate.KindThreshold, K: 2, Watch: watch})
		for _, w := range watch[:2] {
			seq++
			in = wire.Append(in, &wire.Frame{Op: wire.OpIncrement, Name: w.Name, Seq: seq, Amount: 1})
		}
		rd.Reset(in)
		br.Reset(rd)
		for br.Buffered() > 0 || rd.Len() > 0 {
			if err := c.serve(br); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.waits) != 0 {
			t.Fatal("the second increment did not flip the parked predicate")
		}
		drain()
		// The other two names catch up, so the next run parks one above
		// every value again.
		for _, w := range watch[2:] {
			seq++
			if err := c.handle(&wire.Frame{Op: wire.OpIncrement, Name: w.Name, Seq: seq, Amount: 1}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != waitForAllocs {
		t.Errorf("2-of-4 OpWaitFor parked and flipped by two OpIncrements: %v allocs, want %d", n, waitForAllocs)
	}

	// A 16-entry OpIncrements over four slots, bound by the frame before
	// the runs, each entry claimed and applied on its own seq.
	serveAll := func(f *wire.Frame) {
		in = wire.Append(in[:0], f)
		rd.Reset(in)
		br.Reset(rd)
		if err := c.serve(br); err != nil {
			t.Fatal(err)
		}
		drain()
	}
	bind := wire.Frame{Op: wire.OpIncrements, Seq: seq + 1}
	for i := range 4 {
		bind.Incs = append(bind.Incs, wire.Inc{Slot: uint64(i), Name: fmt.Sprintf("batched%d", i), Amount: 1})
	}
	seq += 4
	serveAll(&bind)
	batch := wire.Frame{Op: wire.OpIncrements, Incs: make([]wire.Inc, 16)}
	for i := range batch.Incs {
		batch.Incs[i] = wire.Inc{Slot: uint64(i % 4), Amount: 1}
	}
	const batches = 1000
	n = testing.AllocsPerRun(batches, func() {
		batch.Seq = seq + 1
		seq += uint64(len(batch.Incs))
		serveAll(&batch)
	})
	if n != 0 {
		t.Errorf("16-entry OpIncrements in, OpIncAck out: %v allocs per frame, want 0", n)
	}
	if ack, _ := wire.Read(bufio.NewReader(bytes.NewReader(spare))); ack.Op != wire.OpIncAck || ack.Seq != seq {
		t.Fatalf("last drain = %+v, want the IncAck for seq %d", ack, seq)
	}
	for i := range 4 {
		h, _ := c.hosted(fmt.Sprintf("batched%d", i))
		if v, want := h.c.Value(), uint64(1+4*(batches+1)); v != want {
			t.Fatalf("batched%d = %d after the bound frame and %d batches, want %d", i, v, batches+1, want)
		}
	}
}

// TestNonFlippingKickAllocs pins a non-flipping predicate kick at the
// price of the plain wake it stands in for. One all-of OpWaitFor over 64
// names is parked, and each OpIncrement takes one member to its level:
// the member's sentinel fires, the kick evaluates on the incrementing
// goroutine, keeps the other sentinels parked and queues nothing but the
// IncAck. Each crossing must allocate exactly what the same crossing
// costs with one plain OpCheck parked per member instead.
func TestNonFlippingKickAllocs(t *testing.T) {
	const members, crossings = 64, 60
	watch := make([]wire.Watch, members)
	checks := make([]*wire.Frame, members)
	for i := range watch {
		name := fmt.Sprintf("member%02d", i)
		watch[i] = wire.Watch{Name: name, Level: 1}
		checks[i] = &wire.Frame{Op: wire.OpCheck, Name: name, ID: uint64(i + 1), Level: 1}
	}
	// cross parks the frames on a fresh server, then takes one member
	// per run to its level; onAck sees what each crossing queued.
	cross := func(park []*wire.Frame, onAck func(queued []byte, seq uint64)) (*conn, float64) {
		c := newConn(New(), nil)
		if err := c.handle(&wire.Frame{Op: wire.OpHello, Seq: wire.Version}); err != nil {
			t.Fatal(err)
		}
		spare, _ := c.drain(nil) // the Welcome
		for _, f := range park {
			if err := c.handle(f); err != nil {
				t.Fatal(err)
			}
		}
		in := make([]byte, 0, 64)
		rd := bytes.NewReader(nil)
		br := bufio.NewReader(rd)
		var seq uint64
		n := testing.AllocsPerRun(crossings, func() {
			in = wire.Append(in[:0], &wire.Frame{Op: wire.OpIncrement, Name: watch[seq].Name, Seq: seq + 1, Amount: 1})
			seq++
			rd.Reset(in)
			br.Reset(rd)
			if err := c.serve(br); err != nil {
				t.Fatal(err)
			}
			spare, _ = c.drain(spare)
			onAck(spare, seq)
		})
		return c, n
	}

	_, base := cross(checks, func([]byte, uint64) {})

	const id = 1
	waitFor := &wire.Frame{Op: wire.OpWaitFor, ID: id, Pred: predicate.KindThreshold, K: members, Watch: watch}
	ack := make([]byte, 0, 64)
	extra := false
	c, kick := cross([]*wire.Frame{waitFor}, func(queued []byte, seq uint64) {
		ack = wire.Append(ack[:0], &wire.Frame{Op: wire.OpIncAck, Seq: seq})
		extra = extra || !bytes.Equal(queued, ack)
	})
	if kick != base {
		t.Errorf("non-flipping predicate crossing: %v allocs, want %v (a plain OpCheck's crossing)", kick, base)
	}
	t.Logf("allocations per crossing: %v with the predicate parked, %v with plain OpChecks", kick, base)
	if extra {
		t.Error("a non-flipping crossing queued a frame besides its IncAck")
	}
	if st := c.waits[id].cond.Stats(); st.Arms != members || st.Reparks != 0 {
		t.Errorf("after %d crossings: Arms %d, Reparks %d; want %d and 0", crossings+1, st.Arms, st.Reparks, members)
	}

	// The kept sentinels still flip the predicate at the last member.
	for seq := uint64(crossings + 2); seq <= members; seq++ {
		if err := c.handle(&wire.Frame{Op: wire.OpIncrement, Name: watch[seq-1].Name, Seq: seq, Amount: 1}); err != nil {
			t.Fatal(err)
		}
	}
	queued, _ := c.drain(nil)
	if f, _ := wire.Read(bufio.NewReader(bytes.NewReader(queued))); f.Op != wire.OpWake || f.ID != id {
		t.Fatalf("after the last member: queued %+v, want the OpWake for id %d", f, id)
	}
}
