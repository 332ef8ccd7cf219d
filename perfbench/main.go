// Command perfbench is the repository's benchmark. It hosts counterd
// nodes (internal/server) in its own process on 127.0.0.1, so every
// request crosses the loopback interface, and drives them through the
// public clients (counter/remote, counter/cluster) with one of three
// closed-loop workloads — closed because a counter's callers block on
// Check. The host it was written for has two CPUs, so every workload
// runs at most two load goroutines over at most two client connections.
//
//	rtt     two sessions, each Increment(1) then Check(level) on its own
//	        counter with one operation in flight: every layer of the
//	        blocking path runs once per operation, unbatched.
//	ingest  two writers over a two-node cluster (one connection per
//	        node) spreading fire-and-forget increments over a few hundred
//	        names, fenced by a Check at the exact value of each writer's
//	        last-touched name on each node: routing, client batching,
//	        decode, dedup and ack, and the engine's no-waiter fast path;
//	        no dispatcher, no wakes.
//	fanout  thousands of registrations parked over 64 names on one node,
//	        one in eight a wire-v3 k-of-n predicate; one goroutine
//	        releases names in seeded order and waits for every
//	        registration each increment satisfies: the dispatcher, the
//	        engine's wake path, server wake batching and predicates.
//
// Usage:
//
//	perfbench --workload rtt|ingest|fanout --seed N --seconds S --trace 0|1
//
// Inputs (names, schedules, release order, predicate membership and k)
// come from --seed through internal/workload's splitmix64. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, each the median over ten sub-windows of the run:
//
//	setup_s        node start, dial, warm-up and initial park (median of 11)
//	ops_per_s      round trips (rtt), applied increments (ingest),
//	               resolved registrations (fanout) per second
//	lat_p50_us     Increment to Check return (rtt); the fence (ingest);
//	               the wave, releasing Increment to last satisfied
//	               registration (fanout)
//	cpu_us_per_op  process user+sys CPU per operation
//	heap_peak_mb   peak heap in use
//
// Printed with them, outside the JSON: lat_p99_us (the same latency;
// on the shared two-CPU host it moves by more than a regression bound
// from run to run, so it is reported but not bounded), the highest
// percentile the sample supports, and fail_ratio (failed / attempted,
// which the failed and attempted keys carry).
//
// With --trace 1 the run is split in two halves: an untraced half, and
// a traced half whose connections are wrapped (client side through
// remote.WithDialer / cluster.WithDialer, server side through a
// listener handed to Serve). The traced half records spans around the
// public calls and every net.Conn read and write, keeps them in memory
// and writes them to <out>/traces at the end, then replays the captured
// byte streams through wire.Read / wire.Append and the increment
// sequence through core.NewSharded. The metrics are the per-layer ones;
// the tracing overhead is the traced half's end-to-end figures against
// the untraced half's. Which end-to-end metric each layer metric should
// move, on which workload:
//
//	remote.increment_ns_p50, remote.frames_{sent,recv}_per_op
//	    lat_p50_us on rtt; ops_per_s on ingest (rtt, fanout; ingest
//	    frames come from the connection scan, its increments are timed
//	    only through the cluster layer)
//	cluster.increment_ns_p50, cluster.placement_max_share,
//	cluster.nodes_lost
//	    ops_per_s on ingest
//	net.{client,server}_{writes,reads,bytes}_per_op,
//	net.{client,server}_frames_per_write, net.{client,server}_write_ns_p50
//	    lat_* on rtt; ops_per_s on ingest; server_frames_per_write
//	    lat_* on fanout
//	wire.{decode,encode}_{ns,allocs}_per_frame, wire.bytes_per_frame
//	    ops_per_s on ingest (little effect on rtt)
//	server.turnaround_ns_{p50,p99}
//	    lat_p50_us on rtt
//	server.ack_frames_per_inc
//	    ops_per_s on ingest
//	server.send_allocs_per_write, remote.dispatch_allocs_per_ack
//	    the two known gaps, counted from the memory profile: the server
//	    frame queue reallocated after every drain (lat_* on fanout and
//	    rtt), the client map built per IncAck (ops_per_s on ingest)
//	server.wake_frames_per_registration, server.goroutines_added
//	    lat_* on fanout
//	core.fast_path_ratio
//	    ops_per_s on ingest (near 1 there, near 0 on fanout)
//	core.increment_ns
//	    ops_per_s on ingest
//	core.satisfied_levels_per_wave, core.broadcasts_per_wave
//	(condition-variable broadcasts plus ready-channel closes),
//	core.peak_levels
//	    lat_* on fanout
//	predicate.entries_per_registration,
//	predicate.frames_per_nonflipping_inc, predicate.flip_lat_us_p50
//	    lat_* on fanout
//	go.allocs_per_op, go.alloc_bytes_per_op, go.gc_per_kop
//	    cpu_us_per_op and ops_per_s on every workload
//	rtt.*_us
//	    the rtt budget: mean self time per round trip of client
//	    enqueue, net out (with the client write syscall as a child),
//	    server turnaround, net back (with the server write syscall),
//	    client wake, and the unattributed remainder
//
// A layer a workload does not exercise reports 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"monotonic/counter/remote"
	"monotonic/internal/server"
	"monotonic/internal/wire"
)

// bench is one workload instance: set up, loaded, checked, torn down.
type bench interface {
	// setup starts the nodes, dials, warms up and parks; it is what
	// setup_s times.
	setup() error
	// lanes is the number of load goroutines.
	lanes() int
	// load runs lane i until the clock's window ends.
	load(i int, l *lane, clk *clock)
	// verify runs the correctness checks once the load has stopped. It
	// returns the checks made and the checks and operations that failed.
	verify() (checks, failed int64)
	// layers adds the per-layer metrics only the workload can measure,
	// from what the traced window, verify and the connection totals
	// recorded. It runs after teardown, in traced runs only.
	layers(m *measured, nt *netTotals, out metricSet)
	// sequence is the increment sequence of the run for the engine
	// replay: counters addressed and the counter each increment hit.
	sequence() (counters int, seq []int32)
	// increments is how many increments the measured window applied.
	increments(m *measured) int64
	teardown()
}

var benches = map[string]func(seed uint64, t *tracer) bench{
	"rtt":    newRTT,
	"ingest": newIngest,
	"fanout": newFanout,
}

// setupReps is how many times a timed run sets up; setup_s is the
// median and the last set-up is the one measured.
const setupReps = 11

// watchdog ends a run that hangs, without a result.
const watchdog = 170 * time.Second

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "rtt, ingest or fanout")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the span dump goes under")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := benches[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want rtt, ingest or fanout)", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("want --seconds > 0 and --trace 0 or 1")
	}
	var r *result
	var err error
	if *trace == 0 {
		r, err = timed(mk, *seed, *seconds, stdout)
	} else {
		dump := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		r, err = traced(mk, *seed, *seconds, dump, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (s metricSet) set(name string, v float64, unit string) { s[name] = metric{finite(v), unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// timed is the untraced run: set up setupReps times, measure the last.
func timed(mk func(uint64, *tracer) bench, seed uint64, seconds float64, w io.Writer) (*result, error) {
	var setups []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		b = mk(seed, nil)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			b.teardown()
		}
	}
	m := measure(seconds, b.lanes(), nil, b.load)
	checks, failed := b.verify()
	b.teardown()

	r := &result{Attempted: m.ops + checks, Failed: failed, Metrics: metricSet{}}
	r.Correct = failed == 0 && m.ops > 0
	r.Metrics.set("setup_s", median(setups), "s")
	endToEnd(r.Metrics, m)
	printHuman(w, r, m)
	return r, nil
}

func endToEnd(s metricSet, m *measured) {
	s.set("ops_per_s", m.opsPerS, "1/s")
	s.set("lat_p50_us", m.p50us, "us")
	s.set("cpu_us_per_op", m.cpuUsPerOp, "us")
	s.set("heap_peak_mb", m.heapMB, "MB")
}

func printHuman(w io.Writer, r *result, m *measured) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-40s %14.6g us\n", "lat_p99_us", m.p99us)
	fmt.Fprintf(w, "%-40s %14.6g ratio (%d of %d)\n", "fail_ratio",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	if m.tail != "" {
		fmt.Fprintf(w, "%-40s %14.6g us (%d samples over %.1f s)\n",
			"lat_"+m.tail+"_us (highest supported)", m.tailUs, m.all.n, m.seconds)
	}
}

// traced is the per-layer run: an untraced half, then a traced half.
func traced(mk func(uint64, *tracer) bench, seed uint64, seconds float64, dump string, w io.Writer) (*result, error) {
	half := seconds / 2
	plain := mk(seed, nil)
	if err := plain.setup(); err != nil {
		plain.teardown()
		return nil, fmt.Errorf("setup: %w", err)
	}
	mA := measure(half, plain.lanes(), nil, plain.load)
	checksA, failedA := plain.verify()
	plain.teardown()

	t := newTracer()
	b := mk(seed, t)
	defaultRate := runtime.MemProfileRate
	runtime.MemProfileRate = profileRate
	if err := b.setup(); err != nil {
		b.teardown()
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	sites0 := siteAllocs()
	mB := measure(half, b.lanes(), t, b.load)
	sites1 := siteAllocs()
	runtime.MemProfileRate = defaultRate // keep sampling out of the replays' timings
	checksB, failedB := b.verify()
	incs := b.increments(mB)
	b.teardown()

	ops := float64(max(mB.ops, 1))
	nt := t.totals()
	out := layerSet()
	b.layers(mB, nt, out)
	out.set("net.client_writes_per_op", float64(nt.cWrites)/ops, "count")
	out.set("net.server_writes_per_op", float64(nt.sWrites)/ops, "count")
	out.set("net.client_bytes_per_op", float64(nt.cBytes)/ops, "B")
	out.set("net.server_bytes_per_op", float64(nt.sBytes)/ops, "B")
	out.set("net.client_frames_per_write", float64(nt.cFrames)/float64(max(nt.cWrites, 1)), "count")
	out.set("net.server_frames_per_write", float64(nt.sFrames)/float64(max(nt.sWrites, 1)), "count")
	out.set("net.client_write_ns_p50", nt.cWriteNs.quantile(0.5), "ns")
	out.set("net.server_write_ns_p50", nt.sWriteNs.quantile(0.5), "ns")
	out.set("net.client_reads_per_op", float64(nt.cReads)/ops, "count")
	out.set("net.server_reads_per_op", float64(nt.sReads)/ops, "count")
	out.set("server.turnaround_ns_p50", nt.turnaround.quantile(0.5), "ns")
	out.set("server.turnaround_ns_p99", nt.turnaround.quantile(0.99), "ns")
	if incs > 0 {
		out.set("server.ack_frames_per_inc", float64(nt.sOps[wire.OpIncAck])/float64(incs), "count")
	}
	if nt.sWrites > 0 {
		out.set("server.send_allocs_per_write", (sites1[0]-sites0[0])/float64(nt.sWrites), "count")
	}
	if acks := nt.cRecvOps[wire.OpIncAck]; acks > 0 {
		out.set("remote.dispatch_allocs_per_ack", (sites1[1]-sites0[1])/float64(acks), "count")
	}

	wc := replayWire(nt.captures)
	out.set("wire.decode_ns_per_frame", wc.decodeNs, "ns")
	out.set("wire.encode_ns_per_frame", wc.encodeNs, "ns")
	out.set("wire.decode_allocs_per_frame", wc.decodeAllocs, "count")
	out.set("wire.encode_allocs_per_frame", wc.encodeAllocs, "count")
	out.set("wire.bytes_per_frame", wc.bytesPerFrame, "B")
	counters, seq := b.sequence()
	out.set("core.increment_ns", replayCore(counters, seq), "ns")

	out.set("go.allocs_per_op", mA.allocsPerOp, "count")
	out.set("go.alloc_bytes_per_op", mA.allocBytesPerOp, "B")
	out.set("go.gc_per_kop", mA.gcPerKop, "count")
	if mA.opsPerS > 0 && mA.p50us > 0 {
		out.set("trace.ops_per_s_overhead_pct", 100*(mA.opsPerS-mB.opsPerS)/mA.opsPerS, "%")
		out.set("trace.lat_p50_overhead_pct", 100*(mB.p50us-mA.p50us)/mA.p50us, "%")
	}
	if err := t.rec.write(dump); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}

	failed := failedA + failedB
	r := &result{
		Correct:   failed == 0 && mA.ops > 0 && mB.ops > 0,
		Attempted: mA.ops + mB.ops + checksA + checksB,
		Failed:    failed,
		Metrics:   out,
	}
	untraced, tracedE2E := metricSet{}, metricSet{}
	endToEnd(untraced, mA)
	endToEnd(tracedE2E, mB)
	untraced.set("lat_p99_us", mA.p99us, "us")
	tracedE2E.set("lat_p99_us", mB.p99us, "us")
	for _, n := range []string{"ops_per_s", "lat_p50_us", "lat_p99_us", "cpu_us_per_op", "heap_peak_mb"} {
		fmt.Fprintf(w, "%-40s untraced %12.6g  traced %12.6g %s\n", n, untraced[n].Value, tracedE2E[n].Value, untraced[n].Unit)
	}
	fmt.Fprintf(w, "spans written to %s\n", dump)
	printHuman(w, r, mB)
	return r, nil
}

// layerNames lists every per-layer metric with its unit; a traced run
// reports all of them, 0 where its workload does not exercise a layer.
var layerNames = [][2]string{
	{"remote.increment_ns_p50", "ns"},
	{"remote.frames_sent_per_op", "count"},
	{"remote.frames_recv_per_op", "count"},
	{"remote.dispatch_allocs_per_ack", "count"},
	{"cluster.increment_ns_p50", "ns"},
	{"cluster.placement_max_share", "ratio"},
	{"cluster.nodes_lost", "count"},
	{"net.client_writes_per_op", "count"},
	{"net.server_writes_per_op", "count"},
	{"net.client_bytes_per_op", "B"},
	{"net.server_bytes_per_op", "B"},
	{"net.client_frames_per_write", "count"},
	{"net.server_frames_per_write", "count"},
	{"net.client_write_ns_p50", "ns"},
	{"net.server_write_ns_p50", "ns"},
	{"net.client_reads_per_op", "count"},
	{"net.server_reads_per_op", "count"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_allocs_per_frame", "count"},
	{"wire.encode_allocs_per_frame", "count"},
	{"wire.bytes_per_frame", "B"},
	{"server.turnaround_ns_p50", "ns"},
	{"server.turnaround_ns_p99", "ns"},
	{"server.ack_frames_per_inc", "count"},
	{"server.send_allocs_per_write", "count"},
	{"server.wake_frames_per_registration", "count"},
	{"server.goroutines_added", "count"},
	{"core.fast_path_ratio", "ratio"},
	{"core.increment_ns", "ns"},
	{"core.satisfied_levels_per_wave", "count"},
	{"core.broadcasts_per_wave", "count"},
	{"core.peak_levels", "count"},
	{"predicate.entries_per_registration", "count"},
	{"predicate.frames_per_nonflipping_inc", "count"},
	{"predicate.flip_lat_us_p50", "us"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_per_kop", "count"},
	{"rtt.op_us", "us"},
	{"rtt.enqueue_us", "us"},
	{"rtt.net_out_us", "us"},
	{"rtt.client_write_us", "us"},
	{"rtt.server_us", "us"},
	{"rtt.net_back_us", "us"},
	{"rtt.server_write_us", "us"},
	{"rtt.wake_us", "us"},
	{"rtt.unattributed_us", "us"},
	{"trace.ops_per_s_overhead_pct", "%"},
	{"trace.lat_p50_overhead_pct", "%"},
}

func layerSet() metricSet {
	s := metricSet{}
	for _, n := range layerNames {
		s.set(n[0], 0, n[1])
	}
	return s
}

// node is one counterd hosted in this process on a loopback port.
type node struct {
	srv  *server.Server
	addr string
	done chan error
}

func startNode(t *tracer) (*node, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: server.New(), addr: lis.Addr().String(), done: make(chan error, 1)}
	if t != nil {
		lis = tlistener{lis, t}
	}
	go func() { n.done <- n.srv.Serve(lis) }()
	return n, nil
}

// stop closes the node and waits for Serve to return.
func (n *node) stop() {
	if n == nil {
		return
	}
	n.srv.Close()
	<-n.done
}

// dial opens a client session, traced when t is set.
func dial(addr string, t *tracer, sess *session) (*remote.Client, error) {
	if t == nil {
		return remote.Dial(addr)
	}
	return remote.Dial(addr, remote.WithDialer(t.dialer(sess)))
}
