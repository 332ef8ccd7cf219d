package stencil

import (
	"testing"
	"testing/quick"

	"monotonic/internal/core"
	"monotonic/internal/workload"
)

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSequentialConservesBoundary(t *testing.T) {
	s := RunSequential(InitialRod(32), 100, Heat)
	if s[0] != 100 || s[31] != 100 {
		t.Fatalf("boundary changed: %v %v", s[0], s[31])
	}
}

func TestSequentialConvergesTowardBoundary(t *testing.T) {
	s := RunSequential(InitialRod(16), 5000, Heat)
	for i, v := range s {
		if v < 49 || v > 101 {
			t.Fatalf("cell %d = %v after long diffusion, expected near 100", i, v)
		}
	}
}

func TestZeroStepsIsIdentity(t *testing.T) {
	init := InitialRod(10)
	for _, got := range [][]float64{
		RunSequential(init, 0, Heat),
		RunBarrier(init, 0, Heat, nil),
		RunCounter(init, 0, Heat, nil, core.ImplList.New),
		RunBarrierBlocked(init, 0, 4, Heat, nil),
		RunCounterBlocked(init, 0, 4, Heat, nil),
	} {
		if !equal(got, init) {
			t.Fatalf("zero steps changed state: %v", got)
		}
	}
}

func TestTinyRodsAreNoOps(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		init := InitialRod(n)
		if got := RunCounter(init, 10, Heat, nil, core.ImplList.New); !equal(got, init) {
			t.Fatalf("n=%d: interior-free rod changed: %v", n, got)
		}
		if got := RunBarrier(init, 10, Heat, nil); !equal(got, init) {
			t.Fatalf("n=%d: interior-free rod changed: %v", n, got)
		}
	}
}

// TestAllVariantsMatchSequential is the E5 correctness half: every
// parallel strategy produces bit-identical results to the reference.
func TestAllVariantsMatchSequential(t *testing.T) {
	for _, n := range []int{3, 4, 8, 33, 64} {
		for _, steps := range []int{1, 2, 7, 50} {
			init := InitialRod(n)
			want := RunSequential(init, steps, Heat)
			if got := RunBarrier(init, steps, Heat, nil); !equal(got, want) {
				t.Errorf("n=%d steps=%d: barrier variant diverged", n, steps)
			}
			if got := RunCounter(init, steps, Heat, nil, core.ImplList.New); !equal(got, want) {
				t.Errorf("n=%d steps=%d: counter variant diverged", n, steps)
			}
			for _, nt := range []int{1, 2, 3, 8} {
				if got := RunBarrierBlocked(init, steps, nt, Heat, nil); !equal(got, want) {
					t.Errorf("n=%d steps=%d nt=%d: blocked barrier diverged", n, steps, nt)
				}
				if got := RunCounterBlocked(init, steps, nt, Heat, nil); !equal(got, want) {
					t.Errorf("n=%d steps=%d nt=%d: blocked counter diverged", n, steps, nt)
				}
			}
		}
	}
}

// TestVariantsMatchUnderSkew: injected load imbalance must not change
// results, only timing.
func TestVariantsMatchUnderSkew(t *testing.T) {
	init := InitialRod(24)
	want := RunSequential(init, 20, Heat)
	for _, sk := range []workload.Skew{workload.OneSlow{Max: 5}, workload.Alternating{Max: 3}} {
		if got := RunCounter(init, 20, Heat, sk, core.ImplList.New); !equal(got, want) {
			t.Errorf("skew %s: counter variant diverged", sk.Name())
		}
		if got := RunBarrier(init, 20, Heat, sk); !equal(got, want) {
			t.Errorf("skew %s: barrier variant diverged", sk.Name())
		}
		if got := RunCounterBlocked(init, 20, 4, Heat, sk); !equal(got, want) {
			t.Errorf("skew %s: blocked counter diverged", sk.Name())
		}
	}
}

// TestCounterImplAblation: the ragged barrier works with every counter
// implementation.
func TestCounterImplAblation(t *testing.T) {
	init := InitialRod(20)
	want := RunSequential(init, 15, Heat)
	for _, impl := range core.Registry() {
		if got := RunCounter(init, 15, Heat, nil, impl.New); !equal(got, want) {
			t.Errorf("impl %s: diverged", impl)
		}
	}
}

// TestQuickRandomRods: property test over random initial states and
// custom update functions — parallel always equals sequential.
func TestQuickRandomRods(t *testing.T) {
	f := func(seed uint64, n8, steps8, nt8 uint8) bool {
		n := int(n8%40) + 3
		steps := int(steps8%20) + 1
		nt := int(nt8%6) + 1
		rng := workload.NewRNG(seed)
		init := make([]float64, n)
		for i := range init {
			init[i] = rng.Float64() * 100
		}
		avg := func(l, s, r float64) float64 { return (l + s + r) / 3 }
		want := RunSequential(init, steps, avg)
		return equal(RunCounter(init, steps, avg, nil, core.ImplList.New), want) &&
			equal(RunCounterBlocked(init, steps, nt, avg, nil), want) &&
			equal(RunBarrierBlocked(init, steps, nt, avg, nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreThreadsThanCells: blocked variants clamp the thread count.
func TestMoreThreadsThanCells(t *testing.T) {
	init := InitialRod(5) // 3 interior cells
	want := RunSequential(init, 10, Heat)
	if got := RunCounterBlocked(init, 10, 16, Heat, nil); !equal(got, want) {
		t.Fatal("blocked counter wrong with threads > cells")
	}
	if got := RunBarrierBlocked(init, 10, 16, Heat, nil); !equal(got, want) {
		t.Fatal("blocked barrier wrong with threads > cells")
	}
}

func TestInitialRod(t *testing.T) {
	if got := InitialRod(0); len(got) != 0 {
		t.Fatal("InitialRod(0) nonempty")
	}
	r := InitialRod(12)
	if r[0] != 100 || r[11] != 100 || r[4] != 50 {
		t.Fatalf("fixture unexpected: %v", r)
	}
}
