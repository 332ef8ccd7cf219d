//go:build !race

package predicate_test

import (
	"testing"

	"monotonic/counter"
	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// keeper is a hook that holds a level's node live and ignores its fire.
type keeper struct{ core.Hook }

func (*keeper) Fire() {}

// TestFrontierMoveAllocs pins a sum-predicate kick that moves every
// frontier at zero allocations over core counters: the fired slot and
// the slot whose frontier moved re-arm their own embedded hooks in
// place. The levels the frontiers visit are worked out ahead with the
// predicate's own Frontiers and each held live by a keeper hook, so the
// runs measure the re-arms and not the fresh levels' nodes, the
// paper's per-level cost. (The race detector inflates allocation
// counts, hence the build tag.)
func TestFrontierMoveAllocs(t *testing.T) {
	frontierMoveAllocs(t, core.NewSharded(), core.NewSharded())
}

// TestFrontierMoveAllocsFacade is TestFrontierMoveAllocs over the
// public counter.Sharded, whose ArmHook re-arms the slots' hooks as the
// core counter's does: the public predicate path pays nothing per kick.
func TestFrontierMoveAllocsFacade(t *testing.T) {
	frontierMoveAllocs(t, counter.NewSharded(), counter.NewSharded())
}

// watched is a counter the frontier pins both watch and increment.
type watched interface {
	core.Sentineler
	Increment(amount uint64)
}

func frontierMoveAllocs(t *testing.T, a, b watched) {
	t.Helper()
	pred := predicate.SumAtLeast(1 << 62)
	vals, fronts := make([]uint64, 2), make([]uint64, 2)
	var steps []uint64  // a's frontier before each kick
	var rearms []uint64 // the slots each kick re-arms: a's, and b's if it moved
	var keepers []*keeper
	for !pred.Holds(vals) {
		lastB := fronts[1]
		pred.Frontiers(vals, fronts)
		if len(steps) > 0 {
			r := uint64(1)
			if fronts[1] != lastB {
				r++
			}
			rearms = append(rearms, r)
		}
		for i, c := range []watched{a, b} {
			k := &keeper{}
			k.Bind(k)
			if !c.ArmHook(fronts[i], &k.Hook) {
				t.Fatalf("keeper at %d not armed", fronts[i])
			}
			keepers = append(keepers, k)
		}
		steps = append(steps, fronts[0])
		vals[0] = fronts[0]
	}
	cond := predicate.NewCond(pred, a, b)
	flipped := false
	if !cond.Arm(&firer{func() { flipped = true }}) {
		t.Fatal("Arm on zero counters reported not-armed")
	}
	// Each run takes a to its frontier: its slot fires, and the kick,
	// evaluated on this goroutine, re-arms both slots one step on. The
	// last step, which flips the predicate, is left out.
	next := 0
	n := testing.AllocsPerRun(len(steps)-2, func() {
		a.Increment(steps[next] - a.Watermark())
		next++
	})
	if n != 0 {
		t.Errorf("sum kick moving both frontiers: %v allocs, want 0", n)
	}
	var want uint64
	for _, r := range rearms[:next] {
		want += r
	}
	if st := cond.Stats(); st.Reparks != want || st.Armed != 2 || flipped {
		t.Fatalf("after %d kicks: Reparks %d, Armed %d, flipped %v; want %d, 2, false", next, st.Reparks, st.Armed, flipped, want)
	}
	a.Increment(steps[next] - a.Watermark())
	if !flipped {
		t.Fatal("the last step did not flip the predicate")
	}
	for _, k := range keepers {
		k.Cancel()
	}
}

// TestRenewAllocs pins a registration on a renewed Cond at the level
// nodes its sentinels park on: the slots (with their bound hooks), the
// scratch, the levels and counters storage and the firer slot are the
// Cond's own from the first registration on, and a Cond only firers
// observe makes no done channel.
// Each run renews a settled 1-of-2 Cond one level above both counters,
// arms a firer, and flips it by taking one counter to its level.
func TestRenewAllocs(t *testing.T) {
	a, b := core.NewSharded(), core.NewSharded()
	cs := []core.Sentineler{a, b}
	levels := make([]uint64, 2)
	cond := new(predicate.Cond)
	fired := 0
	f := &firer{func() { fired++ }}
	n := testing.AllocsPerRun(100, func() {
		levels[0], levels[1] = a.Value()+1, a.Value()+1
		if !cond.Renew(predicate.Thresholds(levels, 1), cs...) {
			t.Fatal("Renew refused a settled Cond")
		}
		if !cond.Arm(f) {
			t.Fatal("Arm one level above both counters reported not armed")
		}
		a.Increment(1)
	})
	const want = 2 // a node on each counter's level
	if n != want {
		t.Errorf("renewed 1-of-2 registration armed and flipped: %v allocs, want %d", n, want)
	}
	if fired != 101 {
		t.Fatalf("the firer ran %d times over 101 registrations", fired)
	}
}
