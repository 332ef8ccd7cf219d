package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"monotonic/internal/predicate"
	"monotonic/internal/wire"
)

// BenchmarkIncrementNames measures the server's read side per pipelined
// OpIncrement (decode, name resolution, dedup, apply and the batched
// acks) on one connection whose increments cycle through a set of
// names. names=64 stays inside the connection's name table; names=4096
// cycles through more names than the table holds, so every frame misses
// it and resolves through the server's map. The link is in memory: it
// encodes the frames as the server reads and discards every reply.
func BenchmarkIncrementNames(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("names=%d", n), func(b *testing.B) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("bench-%04d", i)
			}
			s := New()
			lis := &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
			go s.Serve(lis)
			defer s.Close()
			feed := func(frames int) {
				c := &incConn{names: names, left: frames, closed: make(chan struct{})}
				lis.conns <- c
				<-c.closed
			}
			feed(n) // hosts every name before the clock starts
			b.ResetTimer()
			feed(b.N)
		})
	}
}

// BenchmarkWaitFor measures a server-side predicate wait on the
// reader's side, the path TestSteadyStateAllocs pins at waitForAllocs:
// per op, a 2-of-4 OpWaitFor one above the values of four names is
// decoded, built and parked, two OpIncrements flip it, two more bring
// the other names level for the next op, and the wake and the ack are
// drained as writeLoop drains them.
func BenchmarkWaitFor(b *testing.B) {
	b.ReportAllocs()
	c := newConn(New(), nil)
	if err := c.handle(&wire.Frame{Op: wire.OpHello, Seq: wire.Version}); err != nil {
		b.Fatal(err)
	}
	spare, _ := c.drain(nil) // the Welcome
	watch := make([]wire.Watch, 4)
	for i := range watch {
		watch[i].Name = fmt.Sprintf("quorum%d", i)
	}
	in := make([]byte, 0, 256)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var seq uint64
	b.ResetTimer()
	for level := uint64(1); level <= uint64(b.N); level++ {
		for i := range watch {
			watch[i].Level = level
		}
		in = wire.Append(in[:0], &wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: predicate.KindThreshold, K: 2, Watch: watch})
		for _, w := range watch {
			seq++
			in = wire.Append(in, &wire.Frame{Op: wire.OpIncrement, Name: w.Name, Seq: seq, Amount: 1})
		}
		rd.Reset(in)
		br.Reset(rd)
		for br.Buffered() > 0 || rd.Len() > 0 {
			if err := c.serve(br); err != nil {
				b.Fatal(err)
			}
		}
		if len(c.waits) != 0 {
			b.Fatal("the second increment did not flip the parked predicate")
		}
		spare, _ = c.drain(spare)
	}
}

// memListener hands out the connections sent on conns.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *memListener) Addr() net.Addr { return &net.TCPAddr{} }

// incConn is a client link that sends a Hello and then left increments,
// cycling through names, and ends with EOF; it discards what the server
// writes and closes closed when the server drops it.
type incConn struct {
	net.Conn // unused methods
	names    []string
	left     int
	seq      uint64
	hello    bool
	closed   chan struct{}
	once     sync.Once
}

func (c *incConn) Read(p []byte) (int, error) {
	const room = 4 + 1 + 1 + wire.MaxName + 2*binary.MaxVarintLen64 // largest frame below
	buf := p[:0:len(p)]
	if !c.hello {
		c.hello = true
		buf = wire.Append(buf, &wire.Frame{Op: wire.OpHello, Seq: wire.Version})
	}
	for c.left > 0 && cap(buf)-len(buf) >= room {
		c.left--
		c.seq++
		name := c.names[c.seq%uint64(len(c.names))]
		buf = wire.Append(buf, &wire.Frame{Op: wire.OpIncrement, Name: name, Seq: c.seq, Amount: 1})
	}
	if len(buf) == 0 {
		return 0, io.EOF
	}
	return len(buf), nil
}

func (c *incConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *incConn) Close() error                { c.once.Do(func() { close(c.closed) }); return nil }
