package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// windows is how many equal sub-windows one measured run is cut into.
// Every end-to-end figure is computed per sub-window and the median is
// reported, so a transient stall on the shared host moves one window,
// not the result.
const windows = 10

// epoch anchors every timestamp the benchmark takes; now is monotonic.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// clock is the measured window: [start, end) cut into windows slices.
type clock struct {
	start, win, end int64
}

func newClock(seconds float64) *clock {
	win := int64(seconds * 1e9 / windows)
	start := now()
	return &clock{start: start, win: win, end: start + windows*win}
}

func (c *clock) done(t int64) bool { return t >= c.end }

func (c *clock) window(t int64) int {
	i := int((t - c.start) / c.win)
	return min(max(i, 0), windows-1)
}

// lane is one load goroutine's record: latency samples and completed
// operations, per sub-window by completion time.
type lane struct {
	lat [windows]*hist
	ops [windows]int64
}

func newLane() *lane {
	l := &lane{}
	for i := range l.lat {
		l.lat[i] = newHist()
	}
	return l
}

func (l *lane) record(clk *clock, start, end int64, ops int64) {
	i := clk.window(end)
	l.lat[i].add(uint64(end - start))
	l.ops[i] += ops
}

// hist is a log-linear histogram of nanosecond durations. Values below
// 2*subCount are exact; above, each power of two splits into subCount
// buckets, so a bucket is narrower than 1/128 of its values. Values from
// 2^maxBits ns (about 18 minutes) up share the last bucket. Quantiles
// interpolate inside a bucket. It is kept small because the benchmark's
// own histograms count in heap_peak_mb.
type hist struct {
	counts []uint32
	n      uint64
}

const (
	subBits  = 7
	subCount = 1 << subBits
	maxBits  = 40
)

func newHist() *hist { return &hist{counts: make([]uint32, (maxBits-subBits)*subCount)} }

func bucketOf(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	v = min(v, 1<<maxBits-1)
	k := bits.Len64(v) - subBits - 1
	return k*subCount + int(v>>k)
}

// bucketRange returns a bucket's lowest value and width.
func bucketRange(i int) (lo, width float64) {
	if i < 2*subCount {
		return float64(i), 1
	}
	k := i/subCount - 1
	m := i - k*subCount
	return float64(uint64(m) << k), float64(uint64(1) << k)
}

func (h *hist) add(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) of the recorded values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// tailPercentile applies the reporting rule for tails: the highest of
// p50, p90, p99, p99.9, ... that has at least ten samples beyond it. It
// returns the percentile as a fraction and its label, or ok=false when
// n is too small to support even the median.
func tailPercentile(n uint64) (q float64, label string, ok bool) {
	labels := []string{"p50", "p90", "p99", "p99.9", "p99.99", "p99.999", "p99.9999"}
	beyond := []uint64{2, 10, 100, 1000, 10000, 100000, 1000000} // n/beyond samples lie past it
	for i := range labels {
		if n < 10*beyond[i] {
			break
		}
		q, label, ok = 1-1/float64(beyond[i]), labels[i], true
	}
	return q, label, ok
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// measured is one measured window's end-to-end figures (medians over the
// sub-windows) plus the Go runtime counters over the whole window.
type measured struct {
	ops        int64
	opsPerS    float64
	p50us      float64
	p99us      float64
	cpuUsPerOp float64
	heapMB     float64

	all     *hist // every latency sample of the window
	tail    string
	tailUs  float64
	seconds float64

	allocsPerOp, allocBytesPerOp, gcPerKop float64
}

// goCounters are the runtime's cumulative allocation and GC counts.
type goCounters struct{ allocs, bytes, gcs uint64 }

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGo() goCounters {
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	return goCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler tracks per-window heap peaks and process CPU at window
// boundaries while the load runs.
type sampler struct {
	heapPeak [windows]uint64
	cpu      [windows + 1]time.Duration
}

// heapTick is how often the sampler reads the heap size; a peak is the
// largest sample in its window.
const heapTick = 5 * time.Millisecond

func (s *sampler) run(clk *clock, stop <-chan struct{}) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	s.cpu[0] = cpuTime()
	next := 1 // next boundary index whose CPU reading is due
	for {
		t := now()
		if next <= windows && t >= clk.start+int64(next)*clk.win {
			s.cpu[next] = cpuTime()
			next++
		}
		if next > windows {
			return
		}
		metrics.Read(heap)
		if w := clk.window(t); heap[0].Value.Uint64() > s.heapPeak[w] {
			s.heapPeak[w] = heap[0].Value.Uint64()
		}
		sleep := min(heapTick, time.Duration(clk.start+int64(next)*clk.win-t))
		select {
		case <-stop:
			return
		case <-time.After(max(sleep, 0)):
		}
	}
}

// measure runs load on n goroutines for the measured window and reduces
// what they recorded. t, when tracing, records only inside the window.
func measure(seconds float64, n int, t *tracer, load func(i int, l *lane, clk *clock)) *measured {
	runtime.GC()
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = newLane()
	}
	g0 := readGo()
	clk := newClock(seconds)
	if t != nil {
		t.active.Store(true)
	}
	var s sampler
	stop := make(chan struct{})
	sdone := make(chan struct{})
	go func() {
		defer close(sdone)
		s.run(clk, stop)
	}()
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			load(i, lanes[i], clk)
		}(i)
	}
	wg.Wait()
	if t != nil {
		t.active.Store(false)
	}
	close(stop)
	<-sdone
	g1 := readGo()

	m := &measured{all: newHist(), seconds: float64(windows*clk.win) / 1e9}
	winS := float64(clk.win) / 1e9
	var ops, p50, p99, cpu, heap []float64
	p99Windows := true
	for w := 0; w < windows; w++ {
		h := newHist()
		var o int64
		for _, l := range lanes {
			h.merge(l.lat[w])
			o += l.ops[w]
		}
		m.all.merge(h)
		m.ops += o
		ops = append(ops, float64(o)/winS)
		p50 = append(p50, h.quantile(0.5)/1e3)
		p99 = append(p99, h.quantile(0.99)/1e3)
		if h.n < 1000 {
			p99Windows = false
		}
		if o > 0 && s.cpu[w+1] > 0 {
			cpu = append(cpu, float64((s.cpu[w+1]-s.cpu[w]).Microseconds())/float64(o))
		}
		if s.heapPeak[w] > 0 {
			heap = append(heap, float64(s.heapPeak[w])/(1<<20))
		}
	}
	m.opsPerS, m.p50us, m.cpuUsPerOp, m.heapMB = median(ops), median(p50), median(cpu), median(heap)
	m.p99us = median(p99)
	if !p99Windows {
		m.p99us = m.all.quantile(0.99) / 1e3
	}
	if q, label, ok := tailPercentile(m.all.n); ok {
		m.tail, m.tailUs = label, m.all.quantile(q)/1e3
	}
	if m.ops > 0 {
		o := float64(m.ops)
		m.allocsPerOp = float64(g1.allocs-g0.allocs) / o
		m.allocBytesPerOp = float64(g1.bytes-g0.bytes) / o
		m.gcPerKop = float64(g1.gcs-g0.gcs) * 1000 / o
	}
	return m
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
