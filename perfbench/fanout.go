package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"monotonic/counter"
	"monotonic/counter/remote"
	"monotonic/counter/wait"
	"monotonic/internal/wire"
	"monotonic/internal/workload"
)

const (
	fanNames      = 64
	fanRegs       = 4096 // registrations kept parked
	fanPredEvery  = 8    // about one registration in this many is a predicate
	fanPredWidth  = 4    // names a predicate watches
	fanWarmPasses = 2    // release passes over every name during set-up
)

// fanReg is one parked registration: a plain Check on one name, or a
// k-of-n predicate armed server-side with Client.ArmSpec.
type fanReg struct {
	client int
	names  []int32
	k      int // 0 for a plain Check
	levels []uint64
	cs     []counter.Interface
	ch     <-chan error // plain: the pending CheckChan, nil once taken
	arm    *arming      // predicate: the current arming
	cancel func() bool
}

// arming is one ArmSpec registration's resolution.
type arming struct {
	done  chan struct{}
	fires atomic.Int32
	sat   atomic.Bool
	at    atomic.Int64
}

// fanoutBench is the fanout workload: one node, two client connections
// holding the registrations, and one releasing goroutine.
type fanoutBench struct {
	seed  uint64
	t     *tracer
	rng   *workload.RNG
	node  *node
	cls   [2]*remote.Client
	ctr   [2][]*remote.Counter
	value []uint64 // each name's value; only the releaser increments
	regs  []*fanReg
	plain [][]int32 // plain registrations by name
	preds [][]int32 // predicate registrations by member name
	npred int
	order []int32 // release order, a fresh seeded permutation per pass
	pos   int
	exp   []int32

	waves, start int64
	failed       int64        // early, missing or degraded resolutions
	doubles      atomic.Int64 // predicate fires beyond the first
	goroutines   int

	// Traced runs only.
	relNs      *hist
	flip       *hist
	released   []int32 // names released inside the window
	nonFlip    int64
	st0        []counter.Stats
	sent, recv [2]uint64
	dSent      uint64
	dRecv      uint64
	st         counter.Stats // engine deltas over the window, peak as max
	entries    int
}

func newFanout(seed uint64, t *tracer) bench { return &fanoutBench{seed: seed, t: t} }

func (b *fanoutBench) lanes() int { return 1 }

func (b *fanoutBench) setup() error {
	base := 0
	if b.t != nil {
		base = settledGoroutines()
	}
	b.rng = workload.NewRNG(b.seed)
	n, err := startNode(b.t)
	if err != nil {
		return err
	}
	b.node = n
	names := make([]string, fanNames)
	for i := range names {
		names[i] = fmt.Sprintf("fan-%016x", b.rng.Uint64())
	}
	for c := range b.cls {
		cl, err := dial(n.addr, b.t, nil)
		if err != nil {
			return err
		}
		b.cls[c] = cl
		for _, name := range names {
			b.ctr[c] = append(b.ctr[c], cl.Counter(name))
		}
	}
	b.value = make([]uint64, fanNames)
	b.plain = make([][]int32, fanNames)
	b.preds = make([][]int32, fanNames)
	for r := 0; r < fanRegs; r++ {
		g := &fanReg{client: r % len(b.cls)}
		if b.rng.Intn(fanPredEvery) == 0 {
			for _, m := range b.rng.Perm(fanNames)[:fanPredWidth] {
				g.names = append(g.names, int32(m))
				g.cs = append(g.cs, b.ctr[g.client][m])
				b.preds[m] = append(b.preds[m], int32(r))
			}
			g.k = 1 + b.rng.Intn(fanPredWidth)
			g.levels = make([]uint64, fanPredWidth)
			b.npred++
		} else {
			m := b.rng.Intn(fanNames)
			g.names = []int32{int32(m)}
			b.plain[m] = append(b.plain[m], int32(r))
		}
		b.regs = append(b.regs, g)
	}
	if b.t != nil {
		b.relNs, b.flip = newHist(), newHist()
	}
	for _, g := range b.regs {
		if err := b.park(g); err != nil {
			return err
		}
	}
	b.fence()
	if got := b.node.srv.PredicateWaits(); got != b.npred {
		return fmt.Errorf("%d predicate entries parked for %d predicates", got, b.npred)
	}
	if b.t != nil {
		// Two goroutines per client; the rest are the server's.
		b.goroutines = runtime.NumGoroutine() - base - 2*len(b.cls)
	}
	for k := 0; k < fanWarmPasses*fanNames; k++ {
		b.wave()
	}
	if b.t != nil {
		b.st0 = make([]counter.Stats, fanNames)
		for i, c := range b.ctr[0] {
			b.st0[i] = c.Stats()
		}
		for c, cl := range b.cls {
			b.sent[c], b.recv[c] = cl.WireStats()
		}
	}
	return nil
}

// settledGoroutines counts goroutines once those of an earlier,
// closed server (its dispatchers retire asynchronously) have exited.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// fence returns once the server has handled everything either client
// sent before it: a Stats round trip rides behind the queued frames.
func (b *fanoutBench) fence() {
	for c := range b.cls {
		b.ctr[c][0].Stats()
	}
}

// park registers g one level above the current values.
func (b *fanoutBench) park(g *fanReg) error {
	if g.k == 0 {
		n := g.names[0]
		g.ch = b.ctr[g.client][n].CheckChan(b.value[n] + 1)
		return nil
	}
	for j, n := range g.names {
		g.levels[j] = b.value[n] + 1
	}
	a := &arming{done: make(chan struct{})}
	g.arm = a
	spec := wait.Spec{Kind: wait.KindThreshold, Counters: g.cs, Levels: g.levels, K: g.k}
	cancel, ok := b.cls[g.client].ArmSpec(spec, func(satisfied bool) {
		if a.fires.Add(1) > 1 {
			b.doubles.Add(1)
			return
		}
		a.at.Store(now())
		a.sat.Store(satisfied)
		close(a.done)
	})
	if !ok {
		return fmt.Errorf("ArmSpec refused %s", spec)
	}
	g.cancel = cancel
	return nil
}

// holds reports whether g's predicate holds at the current values.
func (b *fanoutBench) holds(g *fanReg) bool {
	k := 0
	for j, n := range g.names {
		if b.value[n] >= g.levels[j] {
			k++
		}
	}
	return k >= g.k
}

// resolved reports, without blocking, whether g has already resolved.
// A plain registration's value is taken.
func (b *fanoutBench) resolved(g *fanReg) bool {
	if g.k > 0 {
		return g.arm.fires.Load() > 0
	}
	select {
	case <-g.ch:
		g.ch = nil
		return true
	default:
		return false
	}
}

// wave releases the next name and waits for every registration the
// increment satisfies, then re-parks them. It returns the wave's start
// and end and how many registrations resolved.
func (b *fanoutBench) wave() (t0, t1 int64, resolved int) {
	if b.pos == len(b.order) {
		b.order = b.order[:0]
		for _, n := range b.rng.Perm(fanNames) {
			b.order = append(b.order, int32(n))
		}
		b.pos = 0
	}
	n := b.order[b.pos]
	b.pos++
	b.value[n]++
	traced := b.t != nil && b.t.active.Load()
	if traced && len(b.released) < maxReplay {
		b.released = append(b.released, n)
	}
	exp := append(b.exp[:0], b.plain[n]...)
	for _, r := range b.preds[n] {
		if b.holds(b.regs[r]) {
			exp = append(exp, r)
		} else {
			b.nonFlip++
		}
	}
	b.exp = exp
	for _, r := range exp {
		if b.resolved(b.regs[r]) {
			b.failed++ // resolved before its releasing increment
		}
	}
	t0 = now()
	b.ctr[0][n].Increment(1)
	if traced {
		b.relNs.add(uint64(now() - t0))
	}
	for _, r := range exp {
		g := b.regs[r]
		if g.k == 0 {
			if g.ch != nil {
				if err := <-g.ch; err != nil {
					b.failed++
				}
			}
			continue
		}
		<-g.arm.done
		if !g.arm.sat.Load() {
			b.failed++
		}
	}
	t1 = now()
	for _, r := range exp {
		g := b.regs[r]
		if g.k > 0 && traced {
			b.flip.add(uint64(g.arm.at.Load() - t0))
		}
		if err := b.park(g); err != nil {
			b.failed++
		}
	}
	b.waves++
	return t0, t1, len(exp)
}

func (b *fanoutBench) load(_ int, l *lane, clk *clock) {
	b.start, b.nonFlip = b.waves, 0
	for !clk.done(now()) {
		t0, t1, k := b.wave()
		l.record(clk, t0, t1, int64(k))
		if b.t != nil {
			b.t.rec.add(Span{Trace: uint64(b.waves), Name: "fanout.wave", Start: t0, End: t1})
		}
	}
}

func (b *fanoutBench) verify() (checks, failed int64) {
	if b.t != nil {
		for c, cl := range b.cls {
			s, r := cl.WireStats()
			b.dSent += s - b.sent[c]
			b.dRecv += r - b.recv[c]
		}
		for i, c := range b.ctr[0] {
			st := c.Stats()
			b.st.Increments += st.Increments - b.st0[i].Increments
			b.st.FastPathIncrements += st.FastPathIncrements - b.st0[i].FastPathIncrements
			b.st.SatisfiedLevels += st.SatisfiedLevels - b.st0[i].SatisfiedLevels
			// The dispatcher parks in CheckContext, so its wakes are
			// ready-channel closes; both kinds count as broadcasts.
			b.st.Broadcasts += st.Broadcasts + st.ChannelCloses - b.st0[i].Broadcasts - b.st0[i].ChannelCloses
			b.st.PeakLevels = max(b.st.PeakLevels, st.PeakLevels)
		}
	}
	b.fence()
	failed = b.failed + b.doubles.Load()
	// Nothing parked may have resolved: no increment has released it.
	for _, g := range b.regs {
		checks++
		if b.resolved(g) {
			failed++
		}
	}
	// One server entry per predicate, and none once they are cancelled.
	b.entries = b.node.srv.PredicateWaits()
	if b.entries != b.npred {
		failed++
	}
	for _, g := range b.regs {
		if g.k > 0 && !g.cancel() {
			failed++
		}
	}
	b.fence()
	if b.node.srv.PredicateWaits() != 0 {
		failed++
	}
	return checks + 2, failed
}

// layers also reads the connection scan: wake frames clients read per
// resolved registration, and the surplus per increment that flipped
// none of the predicates watching its name.
func (b *fanoutBench) layers(m *measured, nt *netTotals, out metricSet) {
	ops := float64(max(m.ops, 1))
	waves := float64(max(b.waves-b.start, 1))
	out.set("remote.increment_ns_p50", b.relNs.quantile(0.5), "ns")
	out.set("remote.frames_sent_per_op", float64(b.dSent)/ops, "count")
	out.set("remote.frames_recv_per_op", float64(b.dRecv)/ops, "count")
	out.set("server.goroutines_added", float64(b.goroutines), "count")
	if b.st.Increments > 0 {
		out.set("core.fast_path_ratio", float64(b.st.FastPathIncrements)/float64(b.st.Increments), "ratio")
	}
	out.set("core.satisfied_levels_per_wave", float64(b.st.SatisfiedLevels)/waves, "count")
	out.set("core.broadcasts_per_wave", float64(b.st.Broadcasts)/waves, "count")
	out.set("core.peak_levels", float64(b.st.PeakLevels), "count")
	out.set("predicate.entries_per_registration", float64(b.entries)/float64(max(b.npred, 1)), "count")
	out.set("predicate.flip_lat_us_p50", b.flip.quantile(0.5)/1e3, "us")
	wakes := nt.cRecvOps[wire.OpWake]
	out.set("server.wake_frames_per_registration", float64(wakes)/ops, "count")
	out.set("predicate.frames_per_nonflipping_inc", float64(max(wakes-m.ops, 0))/float64(max(b.nonFlip, 1)), "count")
}

func (b *fanoutBench) sequence() (int, []int32) { return fanNames, b.released }

func (b *fanoutBench) increments(m *measured) int64 { return b.waves - b.start }

func (b *fanoutBench) teardown() {
	for _, cl := range b.cls {
		if cl != nil {
			cl.Close()
		}
	}
	b.node.stop()
}
