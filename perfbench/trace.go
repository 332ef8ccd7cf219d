package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"monotonic/internal/wire"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time, index for index: its
// duration minus the part of its interval its children cover
// (overlapping children count once; child time outside the parent
// does not count). It is quadratic, meant for one request's spans.
func selfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	var kids [][2]int64
	for i, s := range spans {
		kids = kids[:0]
		for _, c := range spans {
			if c.Parent == s.ID && c.ID != s.ID {
				kids = append(kids, [2]int64{c.Start, c.End})
			}
		}
		self[i] = s.End - s.Start - covered(s.Start, s.End, kids)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// recorder keeps spans in memory, up to a cap, for the dump written at
// the end of a traced run.
type recorder struct {
	mu      sync.Mutex
	spans   []Span
	next    uint64
	dropped uint64
}

// maxSpans bounds the dump; spans beyond it are counted, not kept.
const maxSpans = 50000

// reserve returns the first of n consecutive fresh span IDs.
func (r *recorder) reserve(n int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.next + 1
	r.next += uint64(n)
	return first
}

// add keeps s, giving it an ID if it has none.
func (r *recorder) add(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
}

// write dumps the kept spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	fmt.Fprintf(bw, "{\"dropped\": %d}\n", r.dropped)
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer instruments the loopback connections of a traced run: every
// net.Conn read and write is counted, timed, scanned for frame
// boundaries and captured (up to a cap) for the wire replay.
type tracer struct {
	active atomic.Bool // recording: set only inside the measured window
	rec    recorder

	mu       sync.Mutex
	conns    []*tconn
	sessions map[string]*session // client local address → rtt session
}

func newTracer() *tracer { return &tracer{sessions: make(map[string]*session)} }

// dialer returns a client dialer whose connections are traced; sess,
// when non-nil, receives the rtt events of this client's connection.
func (t *tracer) dialer(sess *session) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		c := t.wrap(nc, false)
		if sess != nil {
			c.sess.Store(sess)
			t.mu.Lock()
			t.sessions[nc.LocalAddr().String()] = sess
			t.mu.Unlock()
		}
		return c, nil
	}
}

func (t *tracer) wrap(nc net.Conn, server bool) *tconn {
	c := &tconn{Conn: nc, t: t, server: server, writeNs: newHist(), turnaround: newHist()}
	t.mu.Lock()
	t.conns = append(t.conns, c)
	t.mu.Unlock()
	return c
}

// tlistener hands Serve traced connections.
type tlistener struct {
	net.Listener
	t *tracer
}

func (l tlistener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(nc, true), nil
}

// session correlates the events of one rtt client's operations across
// its connection and the server's end of it. One operation is in flight
// per session, so events are filed under the operation current when
// they start.
type session struct {
	op   atomic.Int64
	ring [8]opEvents
}

// opEvents are one rtt operation's boundary timestamps (0 = not seen):
// the client write carrying the Check, the server read returning it,
// the server write carrying the Wake, and the client read returning it.
type opEvents struct {
	op                           atomic.Int64
	cws, cwe, sre, sws, swe, cre atomic.Int64
}

func (s *session) begin(op int64) {
	e := &s.ring[op%int64(len(s.ring))]
	for _, f := range []*atomic.Int64{&e.cws, &e.cwe, &e.sre, &e.sws, &e.swe, &e.cre} {
		f.Store(0)
	}
	e.op.Store(op)
	s.op.Store(op)
}

// slot returns the events of op if they are still held.
func (s *session) slot(op int64) *opEvents {
	e := &s.ring[op%int64(len(s.ring))]
	if op == 0 || e.op.Load() != op {
		return nil
	}
	return e
}

// tconn is a traced connection. Writes come from one goroutine at a time
// (the client's flusher or enqueuer under the client lock, the server's
// writer), reads from the reader goroutine, so each side's tallies are
// plain fields read after teardown.
type tconn struct {
	net.Conn
	t      *tracer
	server bool
	sess   atomic.Pointer[session]

	writes, wbytes, wframes int64
	wops                    [256]int64
	writeNs                 *hist
	wscan                   frameScanner
	wcap                    []byte

	reads, rframes int64
	rops           [256]int64
	rscan          frameScanner
	rcap           []byte

	// Opcode tallies outside the measured window, discarded; one per
	// side because the reader and the writer run concurrently.
	widle, ridle [256]int64

	lastReadEnd atomic.Int64 // server: when the latest read returned
	lastWrite   int64
	turnaround  *hist // server: read return to the next write
}

// captureCap bounds each direction's captured bytes per connection.
const captureCap = 1 << 20

// session resolves the rtt session of a server connection by the
// client's address, once the client has registered it.
func (c *tconn) session() *session {
	if s := c.sess.Load(); s != nil || !c.server {
		return s
	}
	c.t.mu.Lock()
	s := c.t.sessions[c.RemoteAddr().String()]
	c.t.mu.Unlock()
	if s != nil {
		c.sess.Store(s)
	}
	return s
}

func (c *tconn) Write(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Write(p)
	t1 := now()
	if len(c.wcap) < captureCap {
		c.wcap = append(c.wcap, p[:n]...)
	}
	if !c.t.active.Load() {
		c.wscan.scan(p[:n], &c.widle)
		return n, err
	}
	checks, wakes := c.wops[wire.OpCheck], c.wops[wire.OpWake]
	c.wframes += c.wscan.scan(p[:n], &c.wops)
	c.writes++
	c.wbytes += int64(n)
	c.writeNs.add(uint64(t1 - t0))
	name := "net.client_write"
	if c.server {
		name = "net.server_write"
		if r := c.lastReadEnd.Load(); r > c.lastWrite && r <= t0 {
			c.turnaround.add(uint64(t0 - r))
		}
		c.lastWrite = t0
	}
	c.t.rec.add(Span{Name: name, Start: t0, End: t1})
	if s := c.session(); s != nil {
		if e := s.slot(s.op.Load()); e != nil {
			if !c.server && c.wops[wire.OpCheck] > checks {
				e.cws.Store(t0)
				e.cwe.Store(t1)
			}
			if c.server && c.wops[wire.OpWake] > wakes {
				e.sws.Store(t0)
				e.swe.Store(t1)
			}
		}
	}
	return n, err
}

func (c *tconn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	t1 := now()
	if len(c.rcap) < captureCap {
		c.rcap = append(c.rcap, p[:n]...)
	}
	if !c.t.active.Load() {
		c.rscan.scan(p[:n], &c.ridle)
		return n, err
	}
	checks, wakes := c.rops[wire.OpCheck], c.rops[wire.OpWake]
	c.rframes += c.rscan.scan(p[:n], &c.rops)
	c.reads++
	if c.server {
		c.lastReadEnd.Store(t1)
	}
	if s := c.session(); s != nil {
		if e := s.slot(s.op.Load()); e != nil {
			if c.server && c.rops[wire.OpCheck] > checks {
				e.sre.Store(t1)
			}
			if !c.server && c.rops[wire.OpWake] > wakes {
				e.cre.Store(t1)
			}
		}
	}
	return n, err
}

// frameScanner follows frame boundaries through a byte stream that
// arrives split at arbitrary points, counting frames by opcode.
type frameScanner struct {
	hdr  [4]byte
	nhdr int
	left int  // payload bytes of the current frame not yet seen
	atOp bool // the next payload byte is the opcode
}

func (s *frameScanner) scan(p []byte, ops *[256]int64) (frames int64) {
	for len(p) > 0 {
		if s.left == 0 {
			k := copy(s.hdr[s.nhdr:], p)
			s.nhdr += k
			p = p[k:]
			if s.nhdr == len(s.hdr) {
				s.left = int(binary.BigEndian.Uint32(s.hdr[:]))
				s.nhdr = 0
				s.atOp = s.left > 0
			}
			continue
		}
		if s.atOp {
			ops[p[0]]++
			frames++
			s.atOp = false
		}
		k := min(s.left, len(p))
		s.left -= k
		p = p[k:]
	}
	return frames
}

// netTotals sums the traced connections' tallies by side.
type netTotals struct {
	cWrites, cBytes, cFrames, cReads int64
	sWrites, sBytes, sFrames, sReads int64
	cRecvFrames                      int64
	sOps                             [256]int64 // frames servers wrote, by opcode
	cRecvOps                         [256]int64 // frames clients read, by opcode
	cWriteNs, sWriteNs, turnaround   *hist
	captures                         [][]byte
}

// totals must run after every traced connection's goroutines are gone.
func (t *tracer) totals() *netTotals {
	n := &netTotals{cWriteNs: newHist(), sWriteNs: newHist(), turnaround: newHist()}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		n.captures = append(n.captures, c.wcap, c.rcap)
		if c.server {
			n.sWrites += c.writes
			n.sBytes += c.wbytes
			n.sFrames += c.wframes
			n.sReads += c.reads
			for i, k := range c.wops {
				n.sOps[i] += k
			}
			n.sWriteNs.merge(c.writeNs)
			n.turnaround.merge(c.turnaround)
			continue
		}
		n.cWrites += c.writes
		n.cBytes += c.wbytes
		n.cFrames += c.wframes
		n.cReads += c.reads
		n.cRecvFrames += c.rframes
		for i, k := range c.rops {
			n.cRecvOps[i] += k
		}
		n.cWriteNs.merge(c.writeNs)
	}
	return n
}
