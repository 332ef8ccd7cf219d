package main

import (
	"fmt"
	"time"

	"monotonic/counter"
	"monotonic/counter/remote"
	"monotonic/internal/workload"
)

// rttWarmup is the round trips each session makes during set-up.
const rttWarmup = 2000

// finalWait bounds the wait for a final value in the correctness checks.
const finalWait = 10 * time.Second

// rttBench is the rtt workload: two sessions on one node, each looping
// Increment(1) then Check(level) on its own counter.
type rttBench struct {
	seed  uint64
	t     *tracer
	node  *node
	cls   [2]*remote.Client
	ctrs  [2]*remote.Counter
	level [2]uint64 // each counter's value, known to its session alone

	// Traced runs only.
	sess        [2]*session
	ops         [2]int64
	ring        [2][8][3]int64 // per op: start, Increment return, Check return
	incNs       [2]*hist
	budget      [2]*budget
	sent, recv  [2]uint64 // WireStats at the window's start
	st0         [2]counter.Stats
	dSent       uint64 // WireStats deltas over the window
	dRecv       uint64
	dInc, dFast uint64 // engine increment deltas over the window
}

func newRTT(seed uint64, t *tracer) bench { return &rttBench{seed: seed, t: t} }

func (b *rttBench) lanes() int { return len(b.cls) }

func (b *rttBench) setup() error {
	rng := workload.NewRNG(b.seed)
	n, err := startNode(b.t)
	if err != nil {
		return err
	}
	b.node = n
	for i := range b.cls {
		if b.t != nil {
			b.sess[i], b.incNs[i], b.budget[i] = &session{}, newHist(), newBudget()
		}
		cl, err := dial(n.addr, b.t, b.sess[i])
		if err != nil {
			return err
		}
		b.cls[i] = cl
		b.ctrs[i] = cl.Counter(fmt.Sprintf("rtt-%016x", rng.Uint64()))
		for k := 0; k < rttWarmup; k++ {
			b.ctrs[i].Increment(1)
			b.level[i]++
			b.ctrs[i].Check(b.level[i])
		}
	}
	if b.t != nil {
		for i, cl := range b.cls {
			b.sent[i], b.recv[i] = cl.WireStats()
			b.st0[i] = b.ctrs[i].Stats()
		}
	}
	return nil
}

func (b *rttBench) load(i int, l *lane, clk *clock) {
	c := b.ctrs[i]
	for {
		t0 := now()
		if clk.done(t0) {
			return
		}
		if b.t != nil {
			b.tracedOp(i, t0)
		} else {
			c.Increment(1)
			b.level[i]++
			c.Check(b.level[i])
		}
		l.record(clk, t0, now(), 1)
	}
}

// spanLag is how many operations late a traced op's spans are built, so
// that events landing after Check returns (the server's write syscall
// return) are in.
const spanLag = 4

func (b *rttBench) tracedOp(i int, t0 int64) {
	b.ops[i]++
	op := b.ops[i]
	b.sess[i].begin(op)
	c := b.ctrs[i]
	c.Increment(1)
	ti := now()
	b.level[i]++
	c.Check(b.level[i])
	t5 := now()
	b.ring[i][op%int64(len(b.ring[i]))] = [3]int64{t0, ti, t5}
	b.incNs[i].add(uint64(ti - t0))
	if op > spanLag {
		b.emit(i, op-spanLag)
	}
}

// emit builds one traced op's span tree from its boundary events and
// adds its self times to the lane's budget. A phase whose bounding
// events are missing or out of order is left out, so its time shows as
// the root's unattributed self time.
func (b *rttBench) emit(i int, op int64) {
	e := b.sess[i].slot(op)
	if e == nil {
		return
	}
	r := b.ring[i][op%int64(len(b.ring[i]))]
	t0, ti, t5 := r[0], r[1], r[2]
	rec := &b.t.rec
	id := rec.reserve(10)
	trace := uint64(i)<<40 | uint64(op)
	spans := []Span{{ID: id, Trace: trace, Name: "rtt.op", Start: t0, End: t5}}
	bounds := []int64{t0, e.cws.Load(), e.sre.Load(), e.sws.Load(), e.cre.Load(), t5}
	phases := []string{"client.enqueue", "net.out", "server.turnaround", "net.back", "client.wake"}
	for k, name := range phases {
		a, z := bounds[k], bounds[k+1]
		if a == 0 || z == 0 || z < a {
			continue
		}
		pid := id + 1 + uint64(k)
		spans = append(spans, Span{ID: pid, Parent: id, Trace: trace, Name: name, Start: a, End: z})
		// A write syscall can return after the peer has already read the
		// data; the overrun belongs to the next phase, so the syscall span
		// is clipped to its phase and the budget still sums to the op.
		switch name {
		case "net.out":
			if w := min(e.cwe.Load(), z); w >= a {
				spans = append(spans, Span{ID: id + 6, Parent: pid, Trace: trace, Name: "net.client_write", Start: a, End: w})
			}
		case "net.back":
			if w := min(e.swe.Load(), z); w >= a {
				spans = append(spans, Span{ID: id + 7, Parent: pid, Trace: trace, Name: "net.server_write", Start: a, End: w})
			}
		}
	}
	b.budget[i].add(spans, selfTimes(spans))
	spans = append(spans, Span{ID: id + 8, Trace: trace, Name: "remote.increment", Start: t0, End: ti})
	for _, s := range spans {
		rec.add(s)
	}
}

func (b *rttBench) verify() (checks, failed int64) {
	if b.t != nil {
		for i, cl := range b.cls {
			s, r := cl.WireStats()
			b.dSent += s - b.sent[i]
			b.dRecv += r - b.recv[i]
			st := b.ctrs[i].Stats()
			b.dInc += st.Increments - b.st0[i].Increments
			b.dFast += st.FastPathIncrements - b.st0[i].FastPathIncrements
		}
	}
	return int64(len(b.ctrs)), checkFinals(b.ctrs[:], b.level[:])
}

func (b *rttBench) layers(m *measured, _ *netTotals, out metricSet) {
	ops := float64(max(m.ops, 1))
	inc := newHist()
	all := newBudget()
	for i := range b.cls {
		inc.merge(b.incNs[i])
		all.merge(b.budget[i])
	}
	out.set("remote.increment_ns_p50", inc.quantile(0.5), "ns")
	out.set("remote.frames_sent_per_op", float64(b.dSent)/ops, "count")
	out.set("remote.frames_recv_per_op", float64(b.dRecv)/ops, "count")
	if b.dInc > 0 {
		out.set("core.fast_path_ratio", float64(b.dFast)/float64(b.dInc), "ratio")
	}
	all.report(out)
}

func (b *rttBench) sequence() (int, []int32) {
	seq := make([]int32, 0, min(b.ops[0]+b.ops[1], maxReplay))
	for k := int64(0); k < b.ops[0]+b.ops[1] && len(seq) < maxReplay; k++ {
		seq = append(seq, int32(k%2))
	}
	return 2, seq
}

func (b *rttBench) increments(m *measured) int64 { return m.ops }

func (b *rttBench) teardown() {
	for _, cl := range b.cls {
		if cl != nil {
			cl.Close()
		}
	}
	b.node.stop()
}

// maxReplay caps the increments replayed through the engine.
const maxReplay = 1 << 21

// budget accumulates the rtt span trees' self times by span name.
type budget struct {
	ops   int64
	opNs  int64
	selfs map[string]int64
}

func newBudget() *budget { return &budget{selfs: make(map[string]int64)} }

// add takes one op's spans (the root first) and their self times.
func (g *budget) add(spans []Span, self []int64) {
	g.ops++
	g.opNs += spans[0].End - spans[0].Start
	for k, s := range spans {
		g.selfs[s.Name] += self[k]
	}
}

func (g *budget) merge(o *budget) {
	g.ops += o.ops
	g.opNs += o.opNs
	for n, v := range o.selfs {
		g.selfs[n] += v
	}
}

// report sets the rtt.* metrics: mean self time per op of each layer.
// They sum to rtt.op_us.
func (g *budget) report(out metricSet) {
	if g.ops == 0 {
		return
	}
	us := func(ns int64) float64 { return float64(ns) / float64(g.ops) / 1e3 }
	out.set("rtt.op_us", us(g.opNs), "us")
	for _, p := range [][2]string{
		{"rtt.enqueue_us", "client.enqueue"},
		{"rtt.net_out_us", "net.out"},
		{"rtt.client_write_us", "net.client_write"},
		{"rtt.server_us", "server.turnaround"},
		{"rtt.net_back_us", "net.back"},
		{"rtt.server_write_us", "net.server_write"},
		{"rtt.wake_us", "client.wake"},
		{"rtt.unattributed_us", "rtt.op"},
	} {
		out.set(p[0], us(g.selfs[p[1]]), "us")
	}
}

// finalProbe is what the final-value check needs of a counter.
type finalProbe interface {
	WaitTimeout(level uint64, d time.Duration) bool
}

// checkFinals checks that every counter holds exactly its expected
// final value: a wait at the final succeeds, and a zero-timeout wait
// one above it does not (an increment applied twice would satisfy it).
// It returns how many counters failed.
func checkFinals[C finalProbe](ctrs []C, finals []uint64) (failed int64) {
	for i, c := range ctrs {
		if !c.WaitTimeout(finals[i], finalWait) || c.WaitTimeout(finals[i]+1, 0) {
			failed++
		}
	}
	return failed
}
