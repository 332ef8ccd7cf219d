package remote

import (
	"net"
	"testing"

	"monotonic/internal/wire"
)

// discardConn is a link that swallows every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// BenchmarkTryIncrement measures the client's increment path per call:
// the frame encoded onto the write queue under the client lock, with
// the flusher running, taking the queue and writing it to an in-memory
// link that swallows it. An OpIncAck dispatched every ackEvery calls
// trims the resend queue, as the server's acks do.
func BenchmarkTryIncrement(b *testing.B) {
	const ackEvery = 256
	cl := newClient("", nil)
	cl.nc = discardConn{}
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
