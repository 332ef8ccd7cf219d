//go:build !race

package predicate_test

import (
	"testing"

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
	a, b := core.NewSharded(), core.NewSharded()
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
		for i, c := range []*core.ShardedCounter{a, b} {
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
		a.Increment(steps[next] - a.Value())
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
	a.Increment(steps[next] - a.Value())
	if !flipped {
		t.Fatal("the last step did not flip the predicate")
	}
	for _, k := range keepers {
		k.Cancel()
	}
}
