package linsys

import (
	"math"
	"testing"
	"testing/quick"

	"monotonic/internal/core"
	"monotonic/internal/workload"
)

func TestSolveSeqKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	sys := System{
		A: [][]float64{{2, 1}, {1, 3}},
		B: []float64{5, 10},
	}
	x := SolveSeq(sys)
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveSeqIdentity(t *testing.T) {
	sys := System{
		A: [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		B: []float64{4, -2, 7},
	}
	x := SolveSeq(sys)
	for i, want := range sys.B {
		if x[i] != want {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestResidualSmallOnRandomSystems(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		sys := RandomDominant(40, seed)
		x := SolveSeq(sys)
		if r := Residual(sys, x); r > 1e-9 {
			t.Errorf("seed %d: residual %g", seed, r)
		}
	}
}

// TestParallelBitIdentical: both parallel eliminations produce the exact
// bits of the sequential solution — the determinacy property as numerical
// reproducibility.
func TestParallelBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 5, 33, 64} {
		sys := RandomDominant(n, uint64(n)+100)
		want := SolveSeq(sys)
		for _, nt := range []int{1, 2, 3, 8} {
			if got := SolveBarrier(sys, nt, nil); !EqualExact(got, want) {
				t.Errorf("n=%d nt=%d: barrier solution differs", n, nt)
			}
			if got := SolveCounter(sys, nt, nil, core.ImplList.New); !EqualExact(got, want) {
				t.Errorf("n=%d nt=%d: counter solution differs", n, nt)
			}
		}
	}
}

func TestCounterSolveAllImpls(t *testing.T) {
	sys := RandomDominant(48, 3)
	want := SolveSeq(sys)
	for _, impl := range core.Registry() {
		if got := SolveCounter(sys, 4, nil, impl.New); !EqualExact(got, want) {
			t.Errorf("impl %s: solution differs", impl)
		}
	}
}

func TestSkewDoesNotChangeSolution(t *testing.T) {
	sys := RandomDominant(32, 9)
	want := SolveSeq(sys)
	for _, sk := range []workload.Skew{workload.OneSlow{Max: 5}, workload.Linear{Max: 3}} {
		if got := SolveCounter(sys, 4, sk, core.ImplList.New); !EqualExact(got, want) {
			t.Errorf("skew %s: counter solution differs", sk.Name())
		}
		if got := SolveBarrier(sys, 4, sk); !EqualExact(got, want) {
			t.Errorf("skew %s: barrier solution differs", sk.Name())
		}
	}
}

func TestDegenerateSizes(t *testing.T) {
	if got := SolveCounter(System{}, 4, nil, core.ImplList.New); got != nil {
		t.Fatal("empty system returned a solution")
	}
	sys := System{A: [][]float64{{4}}, B: []float64{8}}
	if got := SolveCounter(sys, 7, nil, core.ImplList.New); len(got) != 1 || got[0] != 2 {
		t.Fatalf("1x1 solution %v", got)
	}
}

// TestQuickRandomSystems: property test — residual small and parallel
// bitwise-equal for random sizes, threads, and seeds.
func TestQuickRandomSystems(t *testing.T) {
	f := func(seed uint64, n8, nt8 uint8) bool {
		n := int(n8%40) + 1
		nt := int(nt8%6) + 1
		sys := RandomDominant(n, seed)
		want := SolveSeq(sys)
		if Residual(sys, want) > 1e-8 {
			return false
		}
		return EqualExact(SolveCounter(sys, nt, nil, core.ImplList.New), want) &&
			EqualExact(SolveBarrier(sys, nt, nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	sys := RandomDominant(5, 1)
	orig := sys.Clone()
	_ = SolveSeq(sys) // must not mutate its argument
	for i := range sys.A {
		for j := range sys.A[i] {
			if sys.A[i][j] != orig.A[i][j] {
				t.Fatal("SolveSeq mutated the input system")
			}
		}
		if sys.B[i] != orig.B[i] {
			t.Fatal("SolveSeq mutated the right-hand side")
		}
	}
}

func TestEqualExact(t *testing.T) {
	if !EqualExact([]float64{1, 2}, []float64{1, 2}) {
		t.Fatal("equal vectors reported unequal")
	}
	if EqualExact([]float64{1}, []float64{1, 2}) {
		t.Fatal("different lengths reported equal")
	}
	if EqualExact([]float64{1}, []float64{2}) {
		t.Fatal("different values reported equal")
	}
}
