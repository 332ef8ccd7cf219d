package main

import (
	"math"
	"testing"

	"monotonic/counter/remote"
	"monotonic/internal/wire"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		label string
	}{
		{0, ""}, {19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"},
		{999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {999999, "p99.99"}, {1234567, "p99.999"},
	} {
		q, label, ok := tailPercentile(c.n)
		if label != c.label || ok != (c.label != "") {
			t.Errorf("tailPercentile(%d) = %q, %v; want %q", c.n, label, ok, c.label)
		}
		// The rule: at least ten samples lie beyond the reported percentile.
		if ok && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %s leaves %.2f samples beyond it", c.n, label, float64(c.n)*(1-q))
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	for v := uint64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100000
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	small := newHist()
	for _, v := range []uint64{3, 3, 7, 200} {
		small.add(v)
	}
	if got := small.quantile(0.5); got < 7 || got >= 8 {
		t.Errorf("small quantile(0.5) = %v, want in [7, 8)", got)
	}
	for v := uint64(1); v < 1<<40; v = v*3 + 1 {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // runs past its parent: clipped
		{ID: 5, Parent: 2, Start: 12, End: 15},   // grandchild: only span 2 loses it
		{ID: 6, Start: 40, End: 60},              // another root
		{ID: 7, Parent: 6, Start: 40, End: 60},   // covers its parent entirely
		{ID: 8, Parent: 6, Start: 100, End: 110}, // entirely outside its parent
	}
	want := []int64{50, 17, 30, 30, 3, 0, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestBudgetSumsToOp(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "rtt.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.enqueue", Start: 0, End: 20},
		{ID: 3, Parent: 1, Name: "net.out", Start: 20, End: 45},
		{ID: 4, Parent: 3, Name: "net.client_write", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "client.wake", Start: 80, End: 100},
	}
	g := newBudget()
	g.add(spans, selfTimes(spans))
	out := layerSet()
	g.report(out)
	var sum float64
	for _, n := range []string{"rtt.enqueue_us", "rtt.net_out_us", "rtt.client_write_us", "rtt.server_us",
		"rtt.net_back_us", "rtt.server_write_us", "rtt.wake_us", "rtt.unattributed_us"} {
		sum += out[n].Value
	}
	if op := out["rtt.op_us"].Value; math.Abs(sum-op) > 1e-12 || op != 0.1 {
		t.Errorf("budget parts sum to %v, op is %v (want 0.1)", sum, op)
	}
	// The phases missing between 45 and 80 show as the unattributed remainder.
	if u := out["rtt.unattributed_us"].Value; math.Abs(u-0.035) > 1e-12 {
		t.Errorf("unattributed = %v us, want 0.035", u)
	}
}

func TestFrameScanner(t *testing.T) {
	frames := []wire.Frame{
		{Op: wire.OpIncrement, Name: "a-longer-counter-name", Seq: 300, Amount: 1},
		{Op: wire.OpCheck, Name: "a", ID: 7, Level: 1 << 40},
		{Op: wire.OpWake, ID: 7, Level: 3},
		{Op: wire.OpIncAck, Seq: 1 << 20},
	}
	var stream []byte
	for i := range frames {
		stream = wire.Append(stream, &frames[i])
	}
	for cut := 1; cut <= len(stream); cut++ {
		var s frameScanner
		var ops [256]int64
		var n int64
		for p := stream; len(p) > 0; {
			k := min(cut, len(p))
			n += s.scan(p[:k], &ops)
			p = p[k:]
		}
		if n != int64(len(frames)) || ops[wire.OpIncrement] != 1 || ops[wire.OpCheck] != 1 ||
			ops[wire.OpWake] != 1 || ops[wire.OpIncAck] != 1 {
			t.Fatalf("chunks of %d: %d frames, ops %v %v %v %v", cut, n,
				ops[wire.OpIncrement], ops[wire.OpCheck], ops[wire.OpWake], ops[wire.OpIncAck])
		}
	}
}

// TestCheckerRejectsDoubleApply applies one increment behind the ingest
// workload's back, as a duplicate the server failed to drop would, and
// expects the final-value check to catch it.
func TestCheckerRejectsDoubleApply(t *testing.T) {
	b := newIngest(7, nil).(*ingestBench)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.teardown()
	if checks, failed := b.verify(); failed != 0 || checks == 0 {
		t.Fatalf("clean run: %d of %d checks failed", failed, checks)
	}
	addr := b.nodes[b.home[5]].addr
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dup := cl.Counter(b.ctrs[5].Name())
	dup.Increment(1)
	dup.Check(b.finals[5] + 1) // the duplicate has landed
	if _, failed := b.verify(); failed != 1 {
		t.Fatalf("double-applied increment: %d checks failed, want 1", failed)
	}
}

// TestWorkloads runs each workload briefly, untraced and traced, and
// expects every correctness check to pass.
func TestWorkloads(t *testing.T) {
	for name, mk := range benches {
		for _, tr := range []*tracer{nil, newTracer()} {
			b := mk(3, tr)
			if err := b.setup(); err != nil {
				b.teardown()
				t.Fatalf("%s: setup: %v", name, err)
			}
			m := measure(0.2, b.lanes(), tr, b.load)
			checks, failed := b.verify()
			b.teardown()
			if m.ops == 0 || failed != 0 {
				t.Errorf("%s (traced %v): %d ops, %d of %d checks failed", name, tr != nil, m.ops, failed, checks)
			}
			if tr != nil {
				b.layers(m, tr.totals(), layerSet())
			}
		}
	}
}
