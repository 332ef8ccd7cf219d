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
// increment (decode, name resolution, dedup, apply and the batched
// acks) on one connection whose increments cycle through a set of
// names, in both encodings: one OpIncrement frame per increment, and
// (",batched") OpIncrements frames of the remote client's size, whose
// entries name their counters by slot, binding a name to the next slot
// round-robin when it holds none, as the client does. names=64 stays
// inside the connection's name table and its slots; names=4096 cycles
// through more names than the table holds, so every OpIncrement misses
// it and resolves through the server's map, and more than the slots,
// so every entry is a binding that does the same. The link is in
// memory: it encodes the frames as the server reads and discards every
// reply.
func BenchmarkIncrementNames(b *testing.B) {
	for _, n := range []int{64, 4096} {
		for _, batched := range []bool{false, true} {
			name := fmt.Sprintf("names=%d", n)
			if batched {
				name += ",batched"
			}
			b.Run(name, func(b *testing.B) {
				names := make([]string, n)
				for i := range names {
					names[i] = fmt.Sprintf("bench-%04d", i)
				}
				s := New()
				lis := &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
				go s.Serve(lis)
				defer s.Close()
				feed := func(incs int) {
					c := &incConn{names: names, batched: batched, left: incs, closed: make(chan struct{})}
					lis.conns <- c
					<-c.closed
				}
				feed(n) // hosts every name before the clock starts
				b.ResetTimer()
				feed(b.N)
			})
		}
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
// writes and closes closed when the server drops it. Batched, it sends
// one OpIncrements frame per read, as long as the remote client makes
// one.
type incConn struct {
	net.Conn // unused methods
	names    []string
	batched  bool
	left     int
	seq      uint64
	hello    bool
	closed   chan struct{}
	once     sync.Once
	// The slot table, batched: slotOf[i] is 1 + the slot names[i] is
	// bound to (0: none), holder[s] 1 + the index of the name slot s
	// holds, next the slot the next binding takes.
	slotOf []int
	holder []int
	next   int
}

func (c *incConn) Read(p []byte) (int, error) {
	// The largest frame or entry below: an OpIncrements of one maximal
	// entry, a little longer than an OpIncrement on a MaxName-byte name.
	const room = 4 + 1 + binary.MaxVarintLen64 + wire.MaxInc
	buf := p[:0:len(p)]
	if !c.hello {
		c.hello = true
		buf = wire.Append(buf, &wire.Frame{Op: wire.OpHello, Seq: wire.Version})
	}
	frame := len(buf)
	for c.left > 0 && cap(buf)-len(buf) >= room && len(buf)-frame <= 4096-wire.MaxInc {
		c.left--
		c.seq++
		i := int(c.seq % uint64(len(c.names)))
		switch {
		case !c.batched:
			buf = wire.Append(buf, &wire.Frame{Op: wire.OpIncrement, Name: c.names[i], Seq: c.seq, Amount: 1})
		case len(buf) == frame:
			buf = wire.Append(buf, &wire.Frame{Op: wire.OpIncrements, Seq: c.seq, Incs: []wire.Inc{c.entry(i)}})
		default:
			buf = wire.AppendInc(buf, frame, c.entry(i))
		}
	}
	if len(buf) == 0 {
		return 0, io.EOF
	}
	return len(buf), nil
}

// entry is the OpIncrements entry for an increment on names[i]: a
// reference to its slot, or a binding of the next slot round-robin.
func (c *incConn) entry(i int) wire.Inc {
	if c.slotOf == nil {
		c.slotOf, c.holder = make([]int, len(c.names)), make([]int, wire.MaxSlots)
	}
	if s := c.slotOf[i]; s > 0 {
		return wire.Inc{Slot: uint64(s - 1), Amount: 1}
	}
	s := c.next
	c.next = (s + 1) % wire.MaxSlots
	if h := c.holder[s]; h > 0 {
		c.slotOf[h-1] = 0
	}
	c.holder[s], c.slotOf[i] = i+1, s+1
	return wire.Inc{Slot: uint64(s), Name: c.names[i], Amount: 1}
}

func (c *incConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *incConn) Close() error                { c.once.Do(func() { close(c.closed) }); return nil }
