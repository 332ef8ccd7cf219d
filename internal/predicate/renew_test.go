package predicate_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// lateCounter is a core.Sentineler whose hook armings the test fires
// by hand. claim raises the value and takes the armed registration's
// hook, as an increment that claims the level does: from then on its
// cancel loses, and the fire lands only when the test delivers it. A
// registration armed while another is live, or while a claimed fire is
// still on its way, is the hook-chain corruption the engine cannot
// survive, so the counter reports it.
type lateCounter struct {
	t     *testing.T
	name  string
	mu    sync.Mutex
	value uint64
	armed *core.Hook // the armed registration's hook
	held  *core.Hook // a claimed registration's hook, not yet fired
}

func (c *lateCounter) Watermark() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.value
}

func (c *lateCounter) ArmHook(level uint64, h *core.Hook) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if level <= c.value {
		return false
	}
	if c.held != nil {
		c.t.Errorf("%s: ArmHook(%d) while the last registration's fire is still on its way", c.name, level)
	}
	if c.armed != nil {
		c.t.Errorf("%s: ArmHook(%d) over a live registration", c.name, level)
	}
	c.armed = h
	h.ArmedBy(c)
	return true
}

// DisarmHook cancels h's registration unless it was claimed, fired or
// cancelled already.
func (c *lateCounter) DisarmHook(h *core.Hook) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed != h {
		return false
	}
	c.armed = nil
	return true
}

// claim raises the value to v and takes the armed registration's hook.
func (c *lateCounter) claim(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.value = v
	c.held, c.armed = c.armed, nil
}

// deliver runs the claimed fire, as the claiming increment's wake path
// does once it gets there.
func (c *lateCounter) deliver() {
	c.t.Helper()
	c.mu.Lock()
	h := c.held
	c.held = nil
	c.mu.Unlock()
	if h == nil {
		c.t.Fatalf("%s: no claimed fire to deliver", c.name)
	}
	h.Run()
}

// TestRenewWaitsForLateFire holds a settled registration's sentinel fire
// in flight across a renewal. A 1-of-2 Cond settles on a's fire while b's
// level has been claimed but its fire not delivered, so b's cancel loses:
// the Cond must not renew until that fire lands, and the late fire must
// neither settle the next registration nor leave its slot armed twice.
func TestRenewWaitsForLateFire(t *testing.T) {
	a := &lateCounter{t: t, name: "a"}
	b := &lateCounter{t: t, name: "b"}
	cond := predicate.NewCond(predicate.Thresholds([]uint64{1, 1}, 1), a, b)
	var first, second atomic.Int32
	if !cond.Arm(&firer{func() { first.Add(1) }}) {
		t.Fatal("first registration not armed")
	}
	b.claim(1) // b's fire is on its way
	a.claim(1)
	a.deliver() // settles the Cond; b's cancel loses
	if n := first.Load(); n != 1 {
		t.Fatalf("first firer ran %d times, want 1", n)
	}

	next := predicate.Thresholds([]uint64{3, 3}, 2)
	renewed := cond.Renew(next, a, b)
	if renewed {
		t.Error("Renew accepted a Cond whose sentinel fire is still on its way")
		if !cond.Arm(&firer{func() { second.Add(1) }}) {
			t.Fatal("second registration not armed")
		}
	}
	b.deliver() // the late fire lands
	if !renewed {
		if !cond.Renew(next, a, b) {
			t.Fatal("Renew refused after the late fire landed")
		}
		if !cond.Arm(&firer{func() { second.Add(1) }}) {
			t.Fatal("second registration not armed")
		}
	}
	if st := cond.Stats(); st.Satisfied || st.Armed != 2 || st.Hooks != 1 || st.Fires != 0 {
		t.Fatalf("second registration after the late fire: %+v, want unsatisfied, 2 armed, 1 hook, 0 fires", st)
	}
	a.claim(3)
	a.deliver()
	if n := second.Load(); n != 0 {
		t.Fatalf("second firer ran %d times with one of two members at its level", n)
	}
	b.claim(3)
	b.deliver()
	if n := second.Load(); n != 1 {
		t.Fatalf("second firer ran %d times after both members reached their level, want 1", n)
	}
}

// TestRenewRefusesALiveCond pins the other refusals: a Cond with an
// armed firer or a Wait under way is in use, and one with an external
// strategy may still hear from its host; a cancelled one renews, and a
// renewal over more counters than the Cond has watched grows it.
func TestRenewRefusesALiveCond(t *testing.T) {
	a, b, c := core.NewSharded(), core.NewSharded(), core.NewSharded()
	refuse := func(func(bool)) (func() bool, bool) { return nil, false }
	ext := new(predicate.Cond)
	ext.InitExternal(predicate.SumAtLeast(5), refuse, a)
	if ext.Renew(predicate.SumAtLeast(5), a) {
		t.Fatal("Renew accepted a Cond with an external strategy")
	}
	cond := new(predicate.Cond)
	if !cond.Renew(predicate.SumAtLeast(5), a) {
		t.Fatal("a zero Cond refused Renew")
	}
	f := &firer{func() { t.Error("a disarmed firer ran") }}
	if !cond.Arm(f) {
		t.Fatal("not armed")
	}
	if cond.Renew(predicate.SumAtLeast(5), a) {
		t.Fatal("Renew accepted a Cond with an armed firer")
	}
	if !cond.Disarm(f) {
		t.Fatal("Disarm of a pending firer reported it already ran")
	}
	if !cond.Renew(predicate.Thresholds([]uint64{1, 1, 1}, 2), a, b, c) {
		t.Fatal("Renew refused a Cond whose only firer was disarmed")
	}
	if got := cond.Cap(); got != 3 {
		t.Fatalf("Cap = %d after a renewal over 3 counters, want 3", got)
	}
	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()
	mustBlock(t, errc)
	if cond.Renew(predicate.SumAtLeast(5), a) {
		t.Fatal("Renew accepted a Cond with a Wait under way")
	}
	b.Increment(1)
	c.Increment(1)
	waitNil(t, errc)
	if !cond.Renew(predicate.SumAtLeast(5), b) {
		t.Fatal("Renew refused a settled Cond")
	}
	if got := cond.Cap(); got != 3 {
		t.Fatalf("Cap = %d after narrowing, want 3 (storage kept)", got)
	}
	if cond.Poll() {
		t.Fatal("the renewed sum over b (value 1) holds at 5")
	}
	for _, ctr := range []*core.ShardedCounter{a, b, c} {
		ctr.Reset() // panics if a sentinel was left parked
	}
}

// TestRenewRacesLateFires renews one Cond round after round while two
// goroutines increment its two watched counters at once. Each round's
// 1-of-2 registration settles on whichever sentinel fires first, so the
// other's cancel often loses to a fire still running in the engine's
// wake path when the next renewal comes: the renewal must wait for it,
// each firer must run exactly once, and no hook may be left on either
// counter. The window opens only under real preemption; CI runs this
// with -race at GOMAXPROCS=4.
func TestRenewRacesLateFires(t *testing.T) {
	a, b := core.NewSharded(), core.NewSharded()
	cs := []core.Sentineler{a, b}
	cond := new(predicate.Cond)
	const rounds = 300
	levels := make([]uint64, 2)
	var wg sync.WaitGroup
	refused := 0
	for r := uint64(1); r <= rounds; r++ {
		levels[0], levels[1] = r, r
		for !cond.Renew(predicate.Thresholds(levels, 1), cs...) {
			refused++
			runtime.Gosched()
		}
		fired := make(chan struct{})
		if !cond.Arm(&firer{func() { close(fired) }}) {
			t.Fatalf("round %d: not armed", r)
		}
		wg.Add(2)
		go func() { defer wg.Done(); a.Increment(1) }()
		go func() { defer wg.Done(); b.Increment(1) }()
		select {
		case <-fired:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the registration never fired", r)
		}
	}
	wg.Wait()
	t.Logf("%d renewals refused over %d rounds", refused, rounds)
	if va, vb := a.Value(), b.Value(); va != rounds || vb != rounds {
		t.Fatalf("values %d and %d after %d rounds", va, vb, rounds)
	}
	a.Reset() // panics if a hook was left parked
	b.Reset()
}

// TestNewCondCopiesItsSlices: NewCond copies the levels and the
// counters it is given, so rewriting either slice afterwards leaves the
// Cond's predicate as it was built.
func TestNewCondCopiesItsSlices(t *testing.T) {
	a := core.NewSharded()
	a.Increment(1)
	levels := []uint64{5}
	threshold := predicate.NewCond(predicate.Thresholds(levels, 1), a)
	levels[0] = 1
	if threshold.Poll() {
		t.Error("a 1-of-1 threshold at 5 holds at 1 once its levels slice is rewritten")
	}

	b, zero := core.NewSharded(), core.NewSharded()
	b.Increment(3)
	cs := []core.Sentineler{b}
	sum := predicate.NewCond(predicate.SumAtLeast(3), cs...)
	cs[0] = zero
	if !sum.Poll() {
		t.Error("a sum over a counter at 3 stops seeing it once the counters slice is rewritten")
	}
}
