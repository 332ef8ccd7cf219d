package graph

import (
	"testing"
	"testing/quick"

	"monotonic/internal/core"
	"monotonic/internal/sthreads"
	"monotonic/internal/workload"
)

// TestFigure1 reproduces the paper's Figure 1 (experiment E1): running
// Floyd-Warshall on the figure's edge matrix yields the figure's path
// matrix, and every multithreaded variant agrees.
func TestFigure1(t *testing.T) {
	edge := Figure1()
	want := Figure1Paths()
	if got := ShortestPaths1(edge); !got.Equal(want) {
		t.Fatalf("ShortestPaths1(Figure1):\n%v\nwant:\n%v", got, want)
	}
	for _, nt := range []int{1, 2, 3} {
		if got := ShortestPaths2(edge, nt, sthreads.Concurrent, nil); !got.Equal(want) {
			t.Errorf("ShortestPaths2 nt=%d wrong:\n%v", nt, got)
		}
		if got := ShortestPaths3CV(edge, nt, sthreads.Concurrent, nil); !got.Equal(want) {
			t.Errorf("ShortestPaths3CV nt=%d wrong:\n%v", nt, got)
		}
		if got := ShortestPaths3(edge, nt, sthreads.Concurrent, nil, core.ImplList.New); !got.Equal(want) {
			t.Errorf("ShortestPaths3 nt=%d wrong:\n%v", nt, got)
		}
	}
}

func TestFigure1HasNoNegativeCycle(t *testing.T) {
	if HasNegativeCycle(Figure1()) {
		t.Fatal("Figure 1 graph reported a negative cycle")
	}
}

func TestNewMatrix(t *testing.T) {
	m := NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := Inf
			if i == j {
				want = 0
			}
			if m[i][j] != want {
				t.Fatalf("m[%d][%d] = %d", i, j, m[i][j])
			}
		}
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := Figure1()
	c := m.Clone()
	c[0][1] = 99
	if m[0][1] == 99 {
		t.Fatal("Clone shares storage with original")
	}
	if !m.Clone().Equal(m) {
		t.Fatal("Clone not equal to original")
	}
}

func TestMatrixEqualShapes(t *testing.T) {
	if NewMatrix(3).Equal(NewMatrix(4)) {
		t.Fatal("different sizes reported equal")
	}
}

func TestMatrixStringInf(t *testing.T) {
	s := NewMatrix(2).String()
	if s != "0 ∞\n∞ 0\n" {
		t.Fatalf("String() = %q", s)
	}
}

// TestSequentialAgreesWithBellmanFord cross-checks Floyd-Warshall against
// the independent Bellman-Ford oracle on random graphs, with and without
// negative weights.
func TestSequentialAgreesWithBellmanFord(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		edge := Random(40, 0.3, 20, seed)
		want, ok := AllPairsBellmanFord(edge)
		if !ok {
			t.Fatal("nonnegative graph reported negative cycle")
		}
		if got := ShortestPaths1(edge); !got.Equal(want) {
			t.Fatalf("seed %d: FW disagrees with Bellman-Ford", seed)
		}

		negEdge := RandomNegative(40, 0.3, 12, 6, seed)
		want, ok = AllPairsBellmanFord(negEdge)
		if !ok {
			t.Fatalf("seed %d: RandomNegative produced a negative cycle", seed)
		}
		if got := ShortestPaths1(negEdge); !got.Equal(want) {
			t.Fatalf("seed %d: FW disagrees with Bellman-Ford on negative weights", seed)
		}
	}
}

// TestRandomNegativeNeverHasNegativeCycle verifies the potential-based
// construction over many seeds (property test).
func TestRandomNegativeNeverHasNegativeCycle(t *testing.T) {
	f := func(seed uint64) bool {
		edge := RandomNegative(24, 0.4, 10, 8, seed)
		return !HasNegativeCycle(edge)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShortestPathsVariantsAgree is experiment E3: on random graphs all
// four programs produce identical path matrices for every thread count.
func TestShortestPathsVariantsAgree(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32, 64} {
		for _, nt := range []int{1, 2, 3, 8} {
			edge := RandomNegative(n, 0.35, 15, 5, uint64(n*100+nt))
			want := ShortestPaths1(edge)
			if got := ShortestPaths2(edge, nt, sthreads.Concurrent, nil); !got.Equal(want) {
				t.Errorf("n=%d nt=%d: barrier variant disagrees", n, nt)
			}
			if got := ShortestPaths3CV(edge, nt, sthreads.Concurrent, nil); !got.Equal(want) {
				t.Errorf("n=%d nt=%d: condvar variant disagrees", n, nt)
			}
			if got := ShortestPaths3(edge, nt, sthreads.Concurrent, nil, core.ImplList.New); !got.Equal(want) {
				t.Errorf("n=%d nt=%d: counter variant disagrees", n, nt)
			}
		}
	}
}

// TestShortestPathsUnderSkew: correctness is unaffected by injected load
// imbalance (only timing should change).
func TestShortestPathsUnderSkew(t *testing.T) {
	edge := Random(48, 0.3, 25, 99)
	want := ShortestPaths1(edge)
	skews := []workload.Skew{workload.Uniform{}, workload.OneSlow{Max: 4}, workload.Linear{Max: 3}}
	for _, sk := range skews {
		if got := ShortestPaths2(edge, 4, sthreads.Concurrent, sk); !got.Equal(want) {
			t.Errorf("skew %s: barrier variant disagrees", sk.Name())
		}
		if got := ShortestPaths3(edge, 4, sthreads.Concurrent, sk, core.ImplList.New); !got.Equal(want) {
			t.Errorf("skew %s: counter variant disagrees", sk.Name())
		}
	}
}

// TestShortestPathsCounterImpls: every counter implementation drives the
// counter variant to the right answer.
func TestShortestPathsCounterImpls(t *testing.T) {
	edge := RandomNegative(48, 0.35, 15, 5, 7)
	want := ShortestPaths1(edge)
	for _, impl := range core.Registry() {
		if got := ShortestPaths3(edge, 4, sthreads.Concurrent, nil, impl.New); !got.Equal(want) {
			t.Errorf("impl %s: counter variant disagrees", impl)
		}
	}
}

// TestSingleThreadSequentialMode: with one thread the counter and condvar
// programs are sequentially executable (each row k+1 is published before
// iteration k+1 needs it), so Sequential mode must work and agree — the
// boundary case of the section 6 equivalence property.
func TestSingleThreadSequentialMode(t *testing.T) {
	edge := RandomNegative(32, 0.35, 15, 5, 11)
	want := ShortestPaths1(edge)
	if got := ShortestPaths3(edge, 1, sthreads.Sequential, nil, core.ImplList.New); !got.Equal(want) {
		t.Error("counter variant wrong in sequential mode")
	}
	if got := ShortestPaths3CV(edge, 1, sthreads.Sequential, nil); !got.Equal(want) {
		t.Error("condvar variant wrong in sequential mode")
	}
	if got := ShortestPaths2(edge, 1, sthreads.Sequential, nil); !got.Equal(want) {
		t.Error("barrier variant wrong in sequential mode")
	}
}

func TestBellmanFordDetectsNegativeCycle(t *testing.T) {
	edge := NewMatrix(3)
	edge[0][1] = 1
	edge[1][2] = -5
	edge[2][0] = 1 // cycle length -3
	if _, ok := AllPairsBellmanFord(edge); ok {
		t.Fatal("negative cycle not detected by Bellman-Ford")
	}
	if !HasNegativeCycle(edge) {
		t.Fatal("negative cycle not detected by Floyd-Warshall diagonal")
	}
}

func TestRandomDensity(t *testing.T) {
	edge := Random(50, 0, 10, 1)
	for i := range edge {
		for j := range edge[i] {
			if i != j && edge[i][j] != Inf {
				t.Fatal("density 0 produced an edge")
			}
		}
	}
	edge = Random(50, 1, 10, 1)
	for i := range edge {
		for j := range edge[i] {
			if i != j && edge[i][j] == Inf {
				t.Fatal("density 1 missing an edge")
			}
			if i == j && edge[i][j] != 0 {
				t.Fatal("self-edge weight nonzero")
			}
		}
	}
}
