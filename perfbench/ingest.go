package main

import (
	"fmt"

	"monotonic/counter"
	"monotonic/counter/cluster"
	"monotonic/internal/workload"
)

const (
	ingestNames   = 384 // names spread over the two nodes
	fenceEvery    = 256 // increments a writer issues between fences
	ingestSched   = 1 << 16
	ingestWarmups = 40 // fenced batches per writer during set-up
)

// ingestBench is the ingest workload: two writers over a two-node
// cluster, each owning half of the names, so each knows its names'
// exact values and a fence can Check at exactly that value.
type ingestBench struct {
	seed    uint64
	t       *tracer
	nodes   [2]*node
	cl      *cluster.Cluster
	ctrs    []*cluster.Counter
	home    []int    // node index of each name, from NodeFor
	finals  []uint64 // each name's value; written only by its owner
	writers [2]ingestWriter
	share   float64 // largest share of names placed on one node

	// Traced runs only.
	incNs      [2]*hist
	st0        []counter.Stats
	dInc, dFst uint64
	live       int
}

type ingestWriter struct {
	sched      []int32 // names this writer increments, cycled
	pos, start int     // schedule position now and when the window opened
	last       [2]int32
}

func newIngest(seed uint64, t *tracer) bench { return &ingestBench{seed: seed, t: t} }

func (b *ingestBench) lanes() int { return len(b.writers) }

func (b *ingestBench) setup() error {
	rng := workload.NewRNG(b.seed)
	addrs := make([]string, len(b.nodes))
	for i := range b.nodes {
		n, err := startNode(b.t)
		if err != nil {
			return err
		}
		b.nodes[i], addrs[i] = n, n.addr
	}
	opts := []cluster.Option{cluster.WithPoolSize(1)}
	if b.t != nil {
		opts = append(opts, cluster.WithDialer(b.t.dialer(nil)))
	}
	cl, err := cluster.DialCluster(addrs, opts...)
	if err != nil {
		return err
	}
	b.cl = cl
	b.ctrs = make([]*cluster.Counter, ingestNames)
	b.home = make([]int, ingestNames)
	b.finals = make([]uint64, ingestNames)
	var placed [2]int
	for i := range b.ctrs {
		name := fmt.Sprintf("ing-%016x", rng.Uint64())
		b.ctrs[i] = cl.Counter(name)
		addr, ok := cl.NodeFor(name)
		if !ok {
			return fmt.Errorf("no live node for %s", name)
		}
		if addr == addrs[1] {
			b.home[i] = 1
		}
		placed[b.home[i]]++
	}
	b.share = float64(max(placed[0], placed[1])) / ingestNames
	for w := range b.writers {
		wr := &b.writers[w]
		wr.sched = make([]int32, ingestSched)
		for k := range wr.sched {
			wr.sched[k] = int32(2*rng.Intn(ingestNames/2) + w) // writer w owns names ≡ w mod 2
		}
		if b.t != nil {
			b.incNs[w] = newHist()
		}
		for k := 0; k < ingestWarmups; k++ {
			b.batch(w)
		}
	}
	if b.t != nil {
		b.st0 = make([]counter.Stats, ingestNames)
		for i, c := range b.ctrs {
			b.st0[i] = c.Stats()
		}
	}
	return nil
}

// batch issues fenceEvery increments, then fences: a Check at the exact
// value of the writer's last-touched name on each node. It returns when
// the fence started and ended.
func (b *ingestBench) batch(w int) (t0, t1 int64) {
	wr := &b.writers[w]
	wr.last = [2]int32{-1, -1}
	for j := 0; j < fenceEvery; j++ {
		ni := wr.sched[wr.pos%len(wr.sched)]
		wr.pos++
		if b.t != nil && b.t.active.Load() {
			s := now()
			b.ctrs[ni].Increment(1)
			b.incNs[w].add(uint64(now() - s))
		} else {
			b.ctrs[ni].Increment(1)
		}
		b.finals[ni]++
		wr.last[b.home[ni]] = ni
	}
	t0 = now()
	for _, ni := range wr.last {
		if ni >= 0 {
			b.ctrs[ni].Check(b.finals[ni])
		}
	}
	return t0, now()
}

func (b *ingestBench) load(w int, l *lane, clk *clock) {
	b.writers[w].start = b.writers[w].pos
	for !clk.done(now()) {
		t0, t1 := b.batch(w)
		l.record(clk, t0, t1, fenceEvery)
		if b.t != nil {
			b.t.rec.add(Span{Trace: uint64(w), Name: "ingest.fence", Start: t0, End: t1})
		}
	}
}

func (b *ingestBench) verify() (checks, failed int64) {
	if b.t != nil {
		for i, c := range b.ctrs {
			st := c.Stats()
			b.dInc += st.Increments - b.st0[i].Increments
			b.dFst += st.FastPathIncrements - b.st0[i].FastPathIncrements
		}
	}
	failed = checkFinals(b.ctrs, b.finals)
	b.live = len(b.cl.Live())
	if b.live != len(b.nodes) {
		failed++
	}
	return int64(len(b.ctrs)) + 1, failed
}

// layers takes the frame counts from the connection scan: the cluster's
// clients are out of reach of Client.WireStats.
func (b *ingestBench) layers(m *measured, nt *netTotals, out metricSet) {
	ops := float64(max(m.ops, 1))
	out.set("remote.frames_sent_per_op", float64(nt.cFrames)/ops, "count")
	out.set("remote.frames_recv_per_op", float64(nt.cRecvFrames)/ops, "count")
	inc := newHist()
	for _, h := range b.incNs {
		inc.merge(h)
	}
	out.set("cluster.increment_ns_p50", inc.quantile(0.5), "ns")
	out.set("cluster.placement_max_share", b.share, "ratio")
	out.set("cluster.nodes_lost", float64(len(b.nodes)-b.live), "count")
	if b.dInc > 0 {
		out.set("core.fast_path_ratio", float64(b.dFst)/float64(b.dInc), "ratio")
	}
}

func (b *ingestBench) sequence() (int, []int32) {
	var seq []int32
	for _, wr := range b.writers {
		for k := wr.start; k < wr.pos && len(seq) < maxReplay; k++ {
			seq = append(seq, wr.sched[k%len(wr.sched)])
		}
	}
	return ingestNames, seq
}

func (b *ingestBench) increments(m *measured) int64 { return m.ops }

func (b *ingestBench) teardown() {
	if b.cl != nil {
		b.cl.Close()
	}
	for _, n := range b.nodes {
		n.stop()
	}
}
