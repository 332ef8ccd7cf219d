package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monotonic/internal/server"
	"monotonic/internal/wire"
)

// stallConn is a link whose writes, while it is stalled, block until the
// test releases them or the link closes, as a write to a peer that
// stopped reading blocks on a full socket buffer.
type stallConn struct {
	net.Conn
	mu      sync.Mutex
	gate    chan struct{} // non-nil while stalled; release closes it
	blocked chan struct{} // a token per write that found the link stalled
	closed  chan struct{}
	once    sync.Once
}

func (c *stallConn) stall() {
	c.mu.Lock()
	c.gate = make(chan struct{})
	c.mu.Unlock()
}

func (c *stallConn) release() {
	c.mu.Lock()
	close(c.gate)
	c.gate = nil
	c.mu.Unlock()
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		select {
		case c.blocked <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(p)
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// within runs f on its own goroutine and fails the test unless it
// returns within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestStalledLink stalls the client's link in the middle of a write and
// pins what waits behind it. While the write is blocked, TryIncrement
// returns at once as long as no more than maxQueue increments are
// queued, a wait parks at once however much is queued, and only the
// increment past the bound waits. The bound counts increments, so it
// holds the same count in both encodings: batched into OpIncrements
// frames (v3), and one OpIncrement frame each (v2). Released, every
// increment is applied exactly once: a Check at the final value returns
// and one above it does not. Stalled again past the bound, Close
// returns and the waiting incrementer gets ErrClosed.
func TestStalledLink(t *testing.T) {
	for _, proto := range []uint64{wire.Version, wire.MinVersion} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) { testStalledLink(t, proto) })
	}
}

func testStalledLink(t *testing.T, proto uint64) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New()
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })

	link := &stallConn{blocked: make(chan struct{}, 1), closed: make(chan struct{})}
	var dialed atomic.Bool
	cl, err := Dial(lis.Addr().String(), WithDialer(func(addr string) (net.Conn, error) {
		if dialed.Swap(true) {
			return nil, errors.New("the stalled link is dialed once")
		}
		nc, err := net.Dial("tcp", addr)
		link.Conn = nc
		return link, err
	}), WithProtocol(proto))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { link.Close() }) // first: unblocks a write a failure left stalled
	if batched := cl.ServerFeatures()&wire.FeatureBatch != 0; batched != (proto >= 3) {
		t.Fatalf("v%d session: FeatureBatch advertised = %v", proto, batched)
	}
	c := cl.Counter("stalled")

	// fill stalls the link, lets the flusher block writing one increment,
	// then queues maxQueue+1 increments behind it, more than the bound,
	// and starts one more, which must wait. It returns the waiting one's
	// result.
	var total uint64
	fill := func() <-chan error {
		t.Helper()
		link.stall()
		c.Increment(1)
		total++
		select {
		case <-link.blocked:
		case <-time.After(5 * time.Second):
			t.Fatal("the flusher never wrote to the stalled link")
		}
		within(t, 5*time.Second, "TryIncrement below the bound", func() {
			for range maxQueue + 1 {
				if err := c.TryIncrement(1); err != nil {
					t.Error(err)
					return
				}
				total++
			}
		})
		waiting := make(chan error, 1)
		go func() { waiting <- c.TryIncrement(1) }()
		select {
		case err := <-waiting:
			t.Fatalf("TryIncrement past the bound returned %v while the link was stalled", err)
		case <-time.After(100 * time.Millisecond):
		}
		return waiting
	}

	waiting := fill()
	total++ // the waiting increment, once it is queued
	var final <-chan error
	within(t, 5*time.Second, "CheckChan past the bound", func() { final = c.CheckChan(total) })
	link.release()
	within(t, 5*time.Second, "TryIncrement after the release", func() {
		if err := <-waiting; err != nil {
			t.Errorf("TryIncrement after the release = %v", err)
		}
	})
	within(t, 5*time.Second, "Check at the final value", func() {
		if err := <-final; err != nil {
			t.Errorf("Check(%d) = %v", total, err)
		}
	})
	if c.WaitTimeout(total+1, 200*time.Millisecond) {
		t.Fatalf("value passed %d: an increment was applied twice", total)
	}

	waiting = fill()
	within(t, 5*time.Second, "Close on a stalled link", func() { cl.Close() })
	within(t, 5*time.Second, "the waiting TryIncrement after Close", func() {
		if err := <-waiting; err != ErrClosed {
			t.Errorf("TryIncrement waiting at Close = %v, want ErrClosed", err)
		}
	})
}
