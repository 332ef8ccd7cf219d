//go:build !race

package remote

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"testing"
	"unsafe"

	cwait "monotonic/counter/wait"
	"monotonic/internal/core"
	"monotonic/internal/wire"
)

// TestSteadyStateAllocs pins the client's steady-state frame paths at
// zero heap allocations per frame: TryIncrement encoding increments on
// more counters than a small map holds inline, as one OpIncrement frame
// each and, where the server advertises wire.FeatureBatch, as entries of
// one OpIncrements frame on bound slots, the OpIncAck for them
// decoded and dispatched (which trims the resend queue and counts a
// round trip per counter), and an OpWake decoded and dispatched to each
// kind of wait-table entry — a blocking wait, an armed hook and an
// ArmSpec registration. It also pins what arming each kind costs once
// answered entries are recycled: CheckChan its channel, whether it parks
// a level or joins the wait parked there, ArmHook nothing, since the
// entry holds the caller's hook, and ArmSpec its cancel, since its
// OpWaitFor is encoded from the client's scratch frame and its entry
// keeps none. The client runs
// without its goroutines over a link that swallows writes: before each
// frame it receives, the test takes the write queue as the flusher
// does, trading it with a spare. (The race detector inflates allocation
// counts, hence the build tag.)
func TestSteadyStateAllocs(t *testing.T) {
	// A parked wait of any kind costs one entry of at most 80 bytes,
	// recycled once answered with its channel storage; the waits joined on
	// it add only their channels.
	if size := unsafe.Sizeof(wait{}); size > 80 {
		t.Errorf("wait-table entry is %d bytes, want at most 80", size)
	}
	cl := newClient("", nil)
	cl.nc = discardConn{}
	cs := make([]*Counter, 16)
	for i := range cs {
		cs[i] = cl.Counter(fmt.Sprintf("jobs%d", i))
	}
	c := cs[0]

	in := make([]byte, 0, 64)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var spare []byte
	recv := func(f *wire.Frame) {
		if len(cl.wq) > 0 {
			spare, _ = cl.take(spare)
		}
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
	for k, features := range []uint64{0, wire.FeatureBatch} {
		cl.features = features
		sent0, _ := cl.WireStats()
		n := testing.AllocsPerRun(runs, func() {
			for _, c := range cs {
				if err := c.TryIncrement(1); err != nil {
					t.Fatal(err)
				}
			}
			recv(&wire.Frame{Op: wire.OpIncAck, Seq: cl.serial})
		})
		frames := len(cs)
		if features != 0 {
			frames = 1
		}
		if n != 0 {
			t.Errorf("features %#x: %d increments out in %d frames, one OpIncAck in: %v allocs, want 0", features, len(cs), frames, n)
		}
		if sent, _ := cl.WireStats(); sent-sent0 != uint64(frames*(runs+1)) {
			t.Errorf("features %#x: %d runs sent %d frames, want %d per run", features, runs+1, sent-sent0, frames)
		}
		if left := len(cl.pending); left != 0 {
			t.Fatalf("features %#x: %d increments still pending after every one was acked", features, left)
		}
		for _, c := range cs {
			if got, want := c.rtts.Load(), uint64((k+1)*(runs+1)); got != want {
				t.Fatalf("features %#x: %s: RemoteRoundTrips = %d after %d acks, want one per ack", features, c.name, got, want)
			}
		}
	}
	cl.features = 0

	chans := make([]chan error, runs+1)
	ids := make([]uint64, len(chans))
	for i := range chans {
		chans[i] = make(chan error, 1)
		ids[i], _ = c.checkChan(uint64(i+1), chans[i])
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
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
	// Each run arms a kind of entry one above the watermark and answers
	// it, so the entry comes back for the next run.
	armed := func(arm func(level uint64)) float64 {
		return testing.AllocsPerRun(runs, func() {
			level := c.Watermark() + 1
			arm(level)
			recv(&wire.Frame{Op: wire.OpWake, ID: cl.serial, Level: level})
		})
	}
	var ch <-chan error
	if n := armed(func(level uint64) {
		if ch != nil {
			if err := <-ch; err != nil {
				t.Fatal(err)
			}
		}
		ch = c.CheckChan(level)
	}); n != 2 {
		t.Errorf("CheckChan parked and woken: %v allocs, want 2 (its channel)", n)
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}

	// Joined waits: each run parks joiners CheckChans on one level, the first
	// sending its OpCheck and every later one joining its entry, and one
	// OpWake answers them all.
	const joiners = 8
	joined := make([]<-chan error, joiners)
	sent0, _ := cl.WireStats()
	if n := armed(func(level uint64) {
		for i, ch := range joined {
			if ch != nil {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			}
			joined[i] = c.CheckChan(level)
		}
	}); n != 2*joiners {
		t.Errorf("%d CheckChans joined on one level and woken: %v allocs, want %d (their channels)", joiners, n, 2*joiners)
	}
	if sent, _ := cl.WireStats(); sent-sent0 != runs+1 {
		t.Fatalf("%d runs of %d joined CheckChans sent %d frames, want one OpCheck per run", runs+1, joiners, sent-sent0)
	}
	for _, ch := range joined {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	// A hook entry: the wake raises the watermark, then runs the hook.
	s := cs[1]
	fired := 0
	hooks := make([]countHook, len(ids))
	for i := range hooks {
		h := &hooks[i]
		h.n = &fired
		h.Bind(h)
		if !s.ArmHook(uint64(i+1), &h.Hook) {
			t.Fatalf("ArmHook(%d) not armed", i+1)
		}
		ids[i] = cl.serial
	}
	next = 0
	n = testing.AllocsPerRun(runs, func() {
		recv(&wire.Frame{Op: wire.OpWake, ID: ids[next], Level: uint64(next + 1)})
		next++
	})
	if n != 0 {
		t.Errorf("OpWake to an armed hook: %v allocs per frame, want 0", n)
	}
	if fired != runs+1 || s.Watermark() != runs+1 {
		t.Fatalf("%d hooks fired, watermark %d; want %d of each", fired, s.Watermark(), runs+1)
	}
	c = s
	h := &hooks[0] // fired, so free to arm again
	if n := armed(func(level uint64) {
		if !s.ArmHook(level, &h.Hook) {
			t.Fatalf("ArmHook(%d) not armed", level)
		}
	}); n != 0 {
		t.Errorf("ArmHook armed and woken: %v allocs, want 0", n)
	}
	if want := 2*runs + 2; fired != want {
		t.Fatalf("%d hooks fired after the re-arms, want %d", fired, want)
	}

	// An ArmSpec registration (an OpWaitFor entry): the wake fires it.
	cl.features = wire.FeatureWaitFor
	spec := cwait.Sum(cs[2], cs[3]).AtLeast(10).Spec()
	verdicts := 0
	fire := func(satisfied bool) {
		if satisfied {
			verdicts++
		}
	}
	for i := range ids {
		if _, ok := cl.ArmSpec(spec, fire); !ok {
			t.Fatal("ArmSpec refused")
		}
		ids[i] = cl.serial
	}
	next = 0
	n = testing.AllocsPerRun(runs, func() {
		recv(&wire.Frame{Op: wire.OpWake, ID: ids[next]})
		next++
	})
	if n != 0 {
		t.Errorf("OpWake to an OpWaitFor: %v allocs per frame, want 0", n)
	}
	if verdicts != runs+1 || len(cl.waits) != 0 {
		t.Fatalf("%d fire(true) verdicts, %d entries left; want %d and 0", verdicts, len(cl.waits), runs+1)
	}
	if n := armed(func(uint64) {
		if _, ok := cl.ArmSpec(spec, fire); !ok {
			t.Fatal("ArmSpec refused")
		}
	}); n != 1 {
		t.Errorf("ArmSpec armed and woken: %v allocs, want 1 (its cancel)", n)
	}
	if len(cl.waits) != 0 {
		t.Fatalf("%d entries left after every registration was answered", len(cl.waits))
	}
}

// TestBlockingWaitAllocs pins the blocking waits whose reply channel
// never leaves the package at zero allocations: a Check the watermark
// answers makes no channel, and a parked-and-woken Check or CheckContext
// reuses the channel of the last one. The client runs without its
// goroutines over a link that swallows writes; a server stand-in takes
// the write queue as the flusher does and answers every OpCheck in it
// with its OpWake. (The race detector inflates allocation counts, hence
// the build tag.)
func TestBlockingWaitAllocs(t *testing.T) {
	cl := newClient("", nil)
	cl.nc = discardConn{}
	c := cl.Counter("jobs")
	served := make(chan struct{})
	go func() {
		defer close(served)
		rd := bytes.NewReader(nil)
		br := bufio.NewReader(rd)
		intern := func([]byte) string { return c.name } // the only name
		var spare []byte
		var f wire.Frame
		wake := wire.Frame{Op: wire.OpWake}
		for {
			buf, nc := cl.take(spare)
			if nc == nil {
				return
			}
			rd.Reset(buf)
			br.Reset(rd)
			for wire.ReadInterned(br, intern, &f) == nil {
				if f.Op == wire.OpCheck {
					wake.ID, wake.Level = f.ID, f.Level
					cl.dispatch(&wake)
				}
			}
			spare = buf
		}
	}()
	defer func() {
		cl.Close()
		<-served
	}()

	const runs = 1000
	if n := testing.AllocsPerRun(runs, func() { c.Check(c.Watermark() + 1) }); n != 0 {
		t.Errorf("Check parked and woken: %v allocs, want 0", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if n := testing.AllocsPerRun(runs, func() {
		if err := c.CheckContext(ctx, c.Watermark()+1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CheckContext parked and woken: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() { c.Check(1) }); n != 0 {
		t.Errorf("Check at the watermark: %v allocs, want 0", n)
	}
	if got := c.Watermark(); got != 2*(runs+1) {
		t.Fatalf("watermark = %d after %d woken waits, want one level per wait", got, 2*(runs+1))
	}
}

// countHook is a hook owner that counts its fires in *n.
type countHook struct {
	core.Hook
	n *int
}

func (h *countHook) Fire() { *h.n++ }
