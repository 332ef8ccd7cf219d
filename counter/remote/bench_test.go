package remote

import (
	"fmt"
	"net"
	"testing"

	"monotonic/counter"
	cwait "monotonic/counter/wait"
	"monotonic/internal/wire"
)

// discardConn is a link that swallows every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// BenchmarkTryIncrement measures the client's increment path per call
// on a link whose server advertises wire.FeatureBatch: the entry encoded
// onto the open OpIncrements frame under the client lock, with the
// flusher running, taking the queue and writing it to an in-memory link
// that swallows it. An OpIncAck dispatched every ackEvery calls trims
// the resend queue, as the server's acks do.
func BenchmarkTryIncrement(b *testing.B) {
	const ackEvery = 256
	cl := newClient("", nil)
	cl.nc = discardConn{}
	cl.features = wire.FeatureBatch
	cl.wg.Add(1)
	go cl.flushLoop()
	defer cl.Close()
	c := cl.Counter("bench-0001")
	ack := wire.Frame{Op: wire.OpIncAck}
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := c.TryIncrement(1); err != nil {
			b.Fatal(err)
		}
		if i%ackEvery == 0 {
			ack.Seq = cl.serial // written only by this goroutine's TryIncrement
			cl.dispatch(&ack)
		}
	}
}

// BenchmarkCheckChanJoin measures the client's half of a fan-out on one
// level: per op, 64 CheckChan calls one above the watermark (the first
// parks the level's entry and encodes its OpCheck, each later one joins
// the entry with its channel and no frame) and the one OpWake that
// answers the level, dispatched to all 64 channels, which are drained.
// The flusher writes to an in-memory link that swallows everything.
func BenchmarkCheckChanJoin(b *testing.B) {
	const joiners = 64
	b.ReportAllocs()
	cl := newClient("", nil)
	cl.nc = discardConn{}
	cl.wg.Add(1)
	go cl.flushLoop()
	defer cl.Close()
	c := cl.Counter("bench-join")
	chs := make([]<-chan error, joiners)
	wake := wire.Frame{Op: wire.OpWake}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wake.Level = c.Watermark() + 1
		for j := range chs {
			chs[j] = c.CheckChan(wake.Level)
		}
		wake.ID = cl.serial // written only by this goroutine's CheckChan
		cl.dispatch(&wake)
		for _, ch := range chs {
			if err := <-ch; err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkArmSpec measures the client's half of a server-side predicate
// registration, beside BenchmarkWaitFor's server half in
// internal/server: per op, a 2-of-4 ArmSpec (the spec validated, the
// client's scratch frame refilled, the entry parked and its OpWaitFor
// encoded onto the write queue, under one hold of the client lock) and
// the OpWake that answers
// it, dispatched to its fire. The flusher writes to an in-memory link
// that swallows everything.
func BenchmarkArmSpec(b *testing.B) {
	b.ReportAllocs()
	cl := newClient("", nil)
	cl.nc = discardConn{}
	cl.features = wire.FeatureWaitFor
	cl.wg.Add(1)
	go cl.flushLoop()
	defer cl.Close()
	cs := make([]counter.Interface, 4)
	for i := range cs {
		cs[i] = cl.Counter(fmt.Sprintf("bench-quorum%d", i))
	}
	spec := cwait.Spec{Kind: cwait.KindThreshold, Counters: cs, Levels: []uint64{1, 1, 1, 1}, K: 2}
	fired := 0
	fire := func(satisfied bool) {
		if satisfied {
			fired++
		}
	}
	wake := wire.Frame{Op: wire.OpWake}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cl.ArmSpec(spec, fire); !ok {
			b.Fatal("ArmSpec refused")
		}
		wake.ID = cl.serial // written only by this goroutine's ArmSpec
		cl.dispatch(&wake)
	}
	if fired != b.N {
		b.Fatalf("%d fire(true) verdicts for %d registrations", fired, b.N)
	}
}
