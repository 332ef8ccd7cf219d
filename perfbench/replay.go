package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/wire"
)

// replayReps is how many times each replay runs; the median is kept.
const replayReps = 5

// wireCost prices the frame codec on a workload's own captured traffic.
type wireCost struct {
	frames                     int64
	bytesPerFrame              float64
	decodeNs, encodeNs         float64 // per frame
	decodeAllocs, encodeAllocs float64 // per frame
}

// replayWire decodes every captured stream with wire.Read and re-encodes
// each frame with wire.Append, timing both and counting allocations. A
// capture cut mid-frame ends at its last whole frame.
func replayWire(captures [][]byte) wireCost {
	var frames []wire.Frame
	var wc wireCost
	var encoded int64
	for _, c := range captures {
		br := bufio.NewReader(bytes.NewReader(c))
		for {
			f, err := wire.Read(br)
			if err != nil {
				break
			}
			frames = append(frames, f)
			encoded += int64(len(wire.Append(nil, &f)))
		}
	}
	wc.frames = int64(len(frames))
	if wc.frames == 0 {
		return wc
	}
	n := float64(wc.frames)
	wc.bytesPerFrame = float64(encoded) / n

	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var sink wire.Frame
	var decNs, decAl, encNs, encAl []float64
	buf := make([]byte, 0, 1<<10)
	for r := 0; r < replayReps; r++ {
		ns, allocs := priced(func() {
			for _, c := range captures {
				rd.Reset(c)
				br.Reset(rd)
				for {
					f, err := wire.Read(br)
					if err != nil {
						break
					}
					sink = f
				}
			}
		})
		decNs, decAl = append(decNs, ns/n), append(decAl, allocs/n)
		ns, allocs = priced(func() {
			for i := range frames {
				buf = wire.Append(buf[:0], &frames[i])
			}
		})
		encNs, encAl = append(encNs, ns/n), append(encAl, allocs/n)
	}
	_ = sink
	wc.decodeNs, wc.decodeAllocs = median(decNs), median(decAl)
	wc.encodeNs, wc.encodeAllocs = median(encNs), median(encAl)
	return wc
}

// replayCore prices the engine on a workload's own increment sequence:
// seq[i] is the counter the i-th increment hit, replayed into fresh
// core.ShardedCounters with no waiters. It returns ns per increment.
func replayCore(counters int, seq []int32) float64 {
	if len(seq) == 0 || counters == 0 {
		return 0
	}
	var per []float64
	for r := 0; r < replayReps; r++ {
		cs := make([]*core.ShardedCounter, counters)
		for i := range cs {
			cs[i] = core.NewSharded()
		}
		ns, _ := priced(func() {
			for _, i := range seq {
				cs[i].Increment(1)
			}
		})
		per = append(per, ns/float64(len(seq)))
	}
	return median(per)
}

// profileRate is the memory profile's sampling interval in bytes during
// a traced window: fine enough to count per-frame allocations at the
// two call sites below, coarse enough to cost a few percent.
const profileRate = 2048

// Call sites whose allocations the traced run counts from the memory
// profile: the server's frame queue, which writeLoop drops after every
// drain, and the client's frame dispatch, which builds a map per IncAck.
var allocSites = []string{
	"monotonic/internal/server.(*conn).send",
	"monotonic/counter/remote.(*Client).dispatch",
}

// siteAllocs estimates, from the sampled memory profile, how many heap
// allocations were made with each allocSites function on the stack.
func siteAllocs() []float64 {
	runtime.GC() // the profile reflects the last completed cycle
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		k, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:k]
			break
		}
		n = k
	}
	out := make([]float64, len(allocSites))
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		// A sample stands for 1/(1-exp(-size/rate)) allocations of its size.
		size := float64(r.AllocBytes) / float64(r.AllocObjects)
		est := float64(r.AllocObjects) / (1 - math.Exp(-size/float64(runtime.MemProfileRate)))
		seen := make([]bool, len(allocSites))
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			for i, site := range allocSites {
				if f.Function == site && !seen[i] {
					seen[i] = true
					out[i] += est
				}
			}
			if !more {
				break
			}
		}
	}
	return out
}

// priced runs fn once and returns its wall time in ns and the heap
// allocations it made.
func priced(fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()), float64(m1.Mallocs - m0.Mallocs)
}
