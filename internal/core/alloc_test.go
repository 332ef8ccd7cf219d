//go:build !race

package core

import "testing"

// hookOwner is a minimal Hook owner that ignores its fire.
type hookOwner struct{ Hook }

func (*hookOwner) Fire() {}

// TestHookArmAllocs pins what a parked hook costs the engine on every
// waitlist design: arming a caller-owned hook on a level that already
// has a node, and cancelling it, allocates nothing, and re-arming it
// from its own fire costs only the fresh level's node. The Sentinel
// closure form pays a fresh hook and its cancel on top. (The race
// detector inflates allocation counts, hence the build tag.)
func TestHookArmAllocs(t *testing.T) {
	for _, impl := range Registry() {
		if impl == ImplChan {
			continue // no engine: the chan design parks a goroutine per hook
		}
		c := NewImpl(impl).(Sentineler)
		t.Run(string(impl), func(t *testing.T) {
			// keep holds the level's node live across the runs.
			var keep, h hookOwner
			keep.Bind(&keep)
			h.Bind(&h)
			if !c.ArmHook(5, &keep.Hook) {
				t.Fatal("ArmHook(5) on a zero counter reported not-armed")
			}
			n := testing.AllocsPerRun(1000, func() {
				if !c.ArmHook(5, &h.Hook) {
					t.Fatal("ArmHook(5) not armed")
				}
				if !h.Cancel() {
					t.Fatal("Cancel of an armed hook reported false")
				}
			})
			if n != 0 {
				t.Errorf("hook armed and cancelled on a live level: %v allocs, want 0", n)
			}
			n = testing.AllocsPerRun(1000, func() {
				cancel, armed := Sentinel(c, 5, func() {})
				if !armed || !cancel() {
					t.Fatal("Sentinel(5) not armed, or its cancel lost")
				}
			})
			if n != 2 {
				t.Errorf("Sentinel armed and cancelled on a live level: %v allocs, want 2 (its hook and cancel)", n)
			}
			if !keep.Cancel() {
				t.Fatal("Cancel of the keeper reported false")
			}
		})
	}
}
