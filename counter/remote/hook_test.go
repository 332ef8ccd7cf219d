package remote

import (
	"sync/atomic"
	"testing"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
	"monotonic/internal/wire"
)

// tally is a hook owner or Cond firer that counts its fires.
type tally struct {
	core.Hook
	n atomic.Int32
}

func (f *tally) Fire() { f.n.Add(1) }

// TestHookMovesBetweenArmers renews one predicate Cond, whose slots
// embed the hooks it arms, from two remote counters onto two in-process
// ones and back again. On each side it arms, cancels and fires: every
// cancel must reach the armer of the hook's current arming — an
// OpCancel for the remote one, the level's node for the engine, so the
// counters reset — and a late OpWake for a cancelled remote id must
// fire nothing.
func TestHookMovesBetweenArmers(t *testing.T) {
	cl, link, _ := dialScripted(t)
	remotes := []core.Sentineler{cl.Counter("ra"), cl.Counter("rb")}
	local := []*core.ShardedCounter{core.NewSharded(), core.NewSharded()}
	locals := []core.Sentineler{local[0], local[1]}
	cond := new(predicate.Cond)
	var f tally

	// armRemote arms f on a 1-of-2 Cond at level over the remote
	// counters, returning the ids of the two OpSentinels it sent.
	armRemote := func(level uint64) [2]uint64 {
		t.Helper()
		if !cond.Renew(predicate.Thresholds([]uint64{level, level}, 1), remotes...) {
			t.Fatal("Renew refused a quiescent Cond")
		}
		if !cond.Arm(&f) {
			t.Fatalf("Arm at %d reported not armed", level)
		}
		var ids [2]uint64
		for i := range ids {
			if s := link.expect(wire.OpSentinel); s.Level != level {
				t.Fatalf("OpSentinel at %d, want %d", s.Level, level)
			} else {
				ids[i] = s.ID
			}
		}
		return ids
	}
	remoteSide := func(level uint64) {
		t.Helper()
		ids := armRemote(level)
		if !cond.Disarm(&f) {
			t.Fatal("Disarm of a pending firer reported it already fired")
		}
		for range ids {
			if c := link.expect(wire.OpCancel); c.ID != ids[0] && c.ID != ids[1] {
				t.Fatalf("OpCancel for id %d, want one of %v", c.ID, ids)
			}
		}
		fence(t, cl, link, nil, wire.Frame{Op: wire.OpWake, ID: ids[0], Level: level},
			wire.Frame{Op: wire.OpWake, ID: ids[1], Level: level})
		if st := cond.Stats(); st.Fires != 0 || st.Armed != 0 || f.n.Load() != 0 {
			t.Fatalf("late OpWakes for cancelled ids: %+v, firer ran %d times; want no fire, none armed", st, f.n.Load())
		}
		ids = armRemote(level)
		link.send(wire.Frame{Op: wire.OpWake, ID: ids[0], Level: level})
		if c := link.expect(wire.OpCancel); c.ID != ids[1] {
			t.Fatalf("settling on the first counter cancelled id %d, want %d", c.ID, ids[1])
		}
		fence(t, cl, link, nil)
		if n := f.n.Swap(0); n != 1 {
			t.Fatalf("firer ran %d times after one counter reached %d, want 1", n, level)
		}
		cl.mu.Lock()
		left := len(cl.waits)
		cl.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d wait-table entries left after the Cond settled", left)
		}
	}
	localSide := func(level uint64) {
		t.Helper()
		for round := 0; round < 2; round++ {
			if !cond.Renew(predicate.Thresholds([]uint64{level, level}, 1), locals...) {
				t.Fatal("Renew refused a quiescent Cond")
			}
			if !cond.Arm(&f) {
				t.Fatalf("Arm at %d reported not armed", level)
			}
			if st := cond.Stats(); st.Armed != 2 {
				t.Fatalf("%d slots armed on the in-process counters, want 2", st.Armed)
			}
			if round == 0 {
				if !cond.Disarm(&f) {
					t.Fatal("Disarm of a pending firer reported it already fired")
				}
			} else {
				local[0].Increment(level - local[0].Value())
				if n := f.n.Swap(0); n != 1 {
					t.Fatalf("firer ran %d times after one counter reached %d, want 1", n, level)
				}
			}
			if st := cond.Stats(); st.Armed != 0 || f.n.Load() != 0 {
				t.Fatalf("round %d: %+v, firer ran %d times; want none armed", round, st, f.n.Load())
			}
			for _, c := range local {
				c.Reset() // panics if a cancel missed its hook on the engine
			}
		}
	}

	remoteSide(3)
	localSide(5)
	remoteSide(7)
	localSide(9)
}

// TestHookCancelRacesWakeAndKick races Hook.Cancel on one remote
// arming against the reader goroutine's OpWake for it, and against a
// reconnect's kick of it. Whichever wins, exactly one of "Fire ran" and
// "Cancel reported true" holds.
func TestHookCancelRacesWakeAndKick(t *testing.T) {
	reconnected := make(chan struct{}, 1)
	cl, link, links := dialScripted(t, WithRetryNotify(func(failures int, _ error) {
		if failures == 0 {
			reconnected <- struct{}{}
		}
	}))
	c := cl.Counter("race")
	var h tally
	h.Bind(&h)
	// arm arms h one level above the watermark and returns its frame.
	arm := func() wire.Frame {
		t.Helper()
		if level := c.Watermark() + 1; !c.ArmHook(level, &h.Hook) {
			t.Fatalf("ArmHook(%d) not armed", level)
		}
		return link.expect(wire.OpSentinel)
	}
	// race cancels h while lose runs, and reports whether the cancel won.
	race := func(lose func()) bool {
		won := make(chan bool, 1)
		go func() { won <- h.Cancel() }()
		lose()
		return <-won
	}
	wins := 0
	check := func(i int, won bool) {
		t.Helper()
		if ran := h.n.Swap(0); won == (ran == 1) || ran > 1 {
			t.Fatalf("iteration %d: cancel won %v, Fire ran %d times", i, won, ran)
		}
		if won {
			wins++
		}
	}
	for i := 0; i < 200; i++ {
		sent := arm()
		won := race(func() { link.send(wire.Frame{Op: wire.OpWake, ID: sent.ID, Level: sent.Level}) })
		var want []wire.Op
		if won {
			want = []wire.Op{wire.OpCancel}
		}
		fence(t, cl, link, want)
		check(i, won)
	}
	t.Logf("the cancel won %d of 200 races against a wake", wins)
	wins = 0
	for i := 0; i < 50; i++ {
		arm()
		link.nc.Close() // the client redials at once
		link = accept(t, links)
		won := race(func() { link.send(welcomeFrame) }) // the kick runs once the welcome lands
		select {
		case <-reconnected: // the kick ran before the reader reported it
		case <-time.After(5 * time.Second):
			t.Fatal("the client never reported the reconnect")
		}
		check(i, won)
	}
	t.Logf("the cancel won %d of 50 races against a reconnect's kick", wins)
}
