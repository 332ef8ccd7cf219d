package wavefront

import (
	"strings"
	"testing"
	"testing/quick"

	"monotonic/internal/core"
	"monotonic/internal/workload"
)

func TestKnownDistances(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"a", "b", 1},
	}
	for _, tc := range cases {
		if got := EditDistanceSeq(tc.a, tc.b, DefaultCosts); got != tc.want {
			t.Errorf("seq(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := EditDistance(tc.a, tc.b, DefaultCosts, 3, 2, core.ImplList.New); got != tc.want {
			t.Errorf("parallel(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCustomCosts(t *testing.T) {
	c := Costs{Match: 0, Mismatch: 3, Gap: 2}
	// "ab" -> "ba": either two substitutions (6) or insert+delete (4).
	if got := EditDistanceSeq("ab", "ba", c); got != 4 {
		t.Fatalf("weighted distance = %d, want 4", got)
	}
	if got := EditDistance("ab", "ba", c, 2, 1, core.ImplList.New); got != 4 {
		t.Fatalf("parallel weighted distance = %d, want 4", got)
	}
}

func randomString(rng *workload.RNG, n int, alphabet string) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// TestQuickParallelMatchesSequential: property test over random strings,
// band counts, block sizes, and counter implementations.
func TestQuickParallelMatchesSequential(t *testing.T) {
	impls := core.Registry()
	f := func(seed uint64, an, bn, bands8, block8 uint8) bool {
		rng := workload.NewRNG(seed)
		a := randomString(rng, int(an%60), "acgt")
		b := randomString(rng, int(bn%60), "acgt")
		bands := int(bands8%6) + 1
		block := int(block8%9) + 1
		want := EditDistanceSeq(a, b, DefaultCosts)
		impl := impls[seed%uint64(len(impls))]
		return EditDistance(a, b, DefaultCosts, bands, block, impl.New) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllImpls(t *testing.T) {
	rng := workload.NewRNG(3)
	a := randomString(rng, 80, "abcdefgh")
	b := randomString(rng, 90, "abcdefgh")
	want := EditDistanceSeq(a, b, DefaultCosts)
	for _, impl := range core.Registry() {
		if got := EditDistance(a, b, DefaultCosts, 4, 8, impl.New); got != want {
			t.Errorf("impl %s: %d, want %d", impl, got, want)
		}
	}
}

func TestBandClamping(t *testing.T) {
	// More bands than rows, zero/negative parameters.
	if got := EditDistance("ab", "xy", DefaultCosts, 16, 4, core.ImplList.New); got != 2 {
		t.Fatalf("clamped bands = %d, want 2", got)
	}
	if got := EditDistance("ab", "xy", DefaultCosts, 0, 0, core.ImplList.New); got != 2 {
		t.Fatalf("degenerate params = %d, want 2", got)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	// Edit distance is a metric; spot-check the triangle inequality on
	// random triples via the parallel implementation.
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		a := randomString(rng, 10+rng.Intn(20), "ab")
		b := randomString(rng, 10+rng.Intn(20), "ab")
		c := randomString(rng, 10+rng.Intn(20), "ab")
		dab := EditDistance(a, b, DefaultCosts, 3, 4, core.ImplList.New)
		dbc := EditDistance(b, c, DefaultCosts, 3, 4, core.ImplList.New)
		dac := EditDistance(a, c, DefaultCosts, 3, 4, core.ImplList.New)
		return dac <= dab+dbc && dab <= dac+dbc && dbc <= dab+dac
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetry(t *testing.T) {
	rng := workload.NewRNG(9)
	for i := 0; i < 20; i++ {
		a := randomString(rng, rng.Intn(40), "xyz")
		b := randomString(rng, rng.Intn(40), "xyz")
		if EditDistance(a, b, DefaultCosts, 2, 3, core.ImplList.New) != EditDistance(b, a, DefaultCosts, 2, 3, core.ImplList.New) {
			t.Fatalf("distance not symmetric for %q, %q", a, b)
		}
	}
}

func TestEmptyA(t *testing.T) {
	// n == 0 takes the sequential fallback inside EditDistance.
	if got := EditDistance("", "abc", DefaultCosts, 4, 2, core.ImplList.New); got != 3 {
		t.Fatalf("empty-a distance = %d", got)
	}
}
