package paraffins

import (
	"reflect"
	"testing"

	"monotonic/internal/core"
	"monotonic/internal/sthreads"
)

// radicalCounts is OEIS A000598 (rooted trees, out-degree <= 3), the
// number of alkyl radicals CnH2n+1 for n = 1..10.
var radicalCounts = []int{1, 1, 2, 4, 8, 17, 39, 89, 211, 507}

// paraffinCounts is OEIS A000602 (n-carbon alkanes) for n = 1..12.
var paraffinCounts = []int{1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355}

func TestRadicalCountsMatchOEIS(t *testing.T) {
	pools := GenerateRadicalsSeq(10)
	for s := 1; s <= 10; s++ {
		if got := len(pools[s]); got != radicalCounts[s-1] {
			t.Errorf("R(%d) = %d, want %d", s, got, radicalCounts[s-1])
		}
	}
}

func TestParaffinCountsMatchOEIS(t *testing.T) {
	pools := GenerateRadicalsSeq(6)
	for n := 1; n <= 12; n++ {
		if got := CountParaffins(pools, n); got != paraffinCounts[n-1] {
			t.Errorf("P(%d) = %d, want %d", n, got, paraffinCounts[n-1])
		}
	}
}

// TestParallelMatchesSequential: the counter-pipelined generator produces
// exactly the sequential pools, for every counter implementation and in
// both execution modes (this program is sequentially equivalent: stage s
// publishes before stage s+1 starts, even run in program order).
func TestParallelMatchesSequential(t *testing.T) {
	want := GenerateRadicalsSeq(9)
	for _, impl := range core.Registry() {
		for _, mode := range sthreads.Modes {
			got := GenerateRadicals(9, mode, impl.New)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("impl=%s mode=%v: pools differ from sequential", impl, mode)
			}
		}
	}
}

func TestCountAll(t *testing.T) {
	got := CountAll(12, sthreads.Concurrent)
	for n := 1; n <= 12; n++ {
		if got[n] != paraffinCounts[n-1] {
			t.Errorf("CountAll[%d] = %d, want %d", n, got[n], paraffinCounts[n-1])
		}
	}
}

func TestEnumerationMatchesCount(t *testing.T) {
	pools := GenerateRadicalsSeq(5)
	for n := 1; n <= 10; n++ {
		forms := EnumerateParaffins(pools, n)
		if len(forms) != paraffinCounts[n-1] {
			t.Errorf("enumerated %d paraffins of size %d, want %d", len(forms), n, paraffinCounts[n-1])
		}
		seen := map[string]bool{}
		for _, f := range forms {
			if seen[f] {
				t.Errorf("duplicate canonical form %q at n=%d", f, n)
			}
			seen[f] = true
		}
	}
}

func TestKnownSmallMolecules(t *testing.T) {
	pools := GenerateRadicalsSeq(3)
	// Butane (n=4): n-butane (edge-centered) and isobutane
	// (vertex-centered with three methyl branches).
	forms := EnumerateParaffins(pools, 4)
	if len(forms) != 2 {
		t.Fatalf("butane isomers = %v", forms)
	}
	// Methane and ethane are unique.
	if got := EnumerateParaffins(pools, 1); len(got) != 1 || got[0] != "C()" {
		t.Fatalf("methane = %v", got)
	}
	if got := EnumerateParaffins(pools, 2); len(got) != 1 {
		t.Fatalf("ethane = %v", got)
	}
}

func TestRadicalCanonicalization(t *testing.T) {
	// The same multiset of children in different orders produces the
	// same repr.
	a := makeRadical(3, []string{"C()", "C(C())"})
	b := makeRadical(3, []string{"C(C())", "C()"})
	if a.Repr != b.Repr {
		t.Fatalf("canonical forms differ: %q vs %q", a.Repr, b.Repr)
	}
}

func TestZeroAndNegative(t *testing.T) {
	pools := GenerateRadicalsSeq(2)
	if CountParaffins(pools, 0) != 0 || CountParaffins(pools, -3) != 0 {
		t.Fatal("nonpositive n must count zero molecules")
	}
	if EnumerateParaffins(pools, 0) != nil {
		t.Fatal("enumeration of n=0 must be empty")
	}
}
