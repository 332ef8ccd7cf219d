package core

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// waitFired waits for a sentinel fire delivered on ch, failing t after
// a generous deadline (the chan implementation fires from a goroutine,
// so fires are not synchronous with Increment everywhere).
func waitFired(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("sentinel never fired")
	}
}

func TestSentinelFires(t *testing.T) {
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			c := NewImpl(impl)
			s := c.(Sentineler)
			fired := make(chan struct{})
			cancel, armed := Sentinel(s, 5, func() { close(fired) })
			if !armed {
				t.Fatal("Sentinel(5) on a zero counter reported not-armed")
			}
			c.Increment(4)
			if impl != ImplBroadcast { // broadcast fires spuriously per increment
				select {
				case <-fired:
					t.Fatal("sentinel fired below its level")
				case <-time.After(20 * time.Millisecond):
				}
				c.Increment(1)
			}
			waitFired(t, fired)
			if cancel() {
				t.Error("cancel after fire reported true")
			}
		})
	}
}

func TestSentinelAlreadySatisfied(t *testing.T) {
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			c := NewImpl(impl)
			c.Increment(5)
			_, armed := Sentinel(c.(Sentineler), 3, func() { t.Error("fn ran for a satisfied level") })
			if armed {
				t.Fatal("Sentinel(3) with value 5 reported armed")
			}
			time.Sleep(10 * time.Millisecond)
		})
	}
}

func TestSentinelCancel(t *testing.T) {
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			c := NewImpl(impl)
			var fired atomic.Bool
			cancel, armed := Sentinel(c.(Sentineler), 10, func() { fired.Store(true) })
			if !armed {
				t.Fatal("not armed")
			}
			if !cancel() {
				t.Fatal("cancel of an armed sentinel reported false")
			}
			if cancel() {
				t.Fatal("second cancel reported true")
			}
			c.Increment(10) // past the level: the cancelled hook must stay silent
			time.Sleep(10 * time.Millisecond)
			if fired.Load() {
				t.Fatal("cancelled sentinel fired")
			}
			c.Reset()
			c.Increment(1)
			c.Check(1)
		})
	}
}

// TestSentinelCancelAnywhereInChain arms sentinels that share one level,
// so they sit in one hook chain, and cancels the head, the tail and
// hooks in between in a seeded order. Each cancel unlinks exactly its
// own hook: the increment past the level fires exactly the uncancelled
// hooks, once each, and the level drains completely, so Reset succeeds.
func TestSentinelCancelAnywhereInChain(t *testing.T) {
	if size := unsafe.Sizeof(Hook{}); size != 56 {
		t.Errorf("Hook is %d bytes, want 56", size)
	}
	if size := unsafe.Sizeof(waitNode{}); size != 144 {
		t.Errorf("waitNode is %d bytes, want 144", size)
	}
	const hooks = 16
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			c := NewImpl(impl)
			var fires [hooks]atomic.Int32
			cancels := make([]func() bool, hooks)
			for i := range cancels {
				cancel, armed := Sentinel(c.(Sentineler), 5, func() { fires[i].Add(1) })
				if !armed {
					t.Fatalf("sentinel %d not armed", i)
				}
				cancels[i] = cancel
			}
			// Hooks push onto the chain's head: the last armed is the head,
			// the first armed the tail.
			rng := rand.New(rand.NewPCG(1, uint64(len(impl))))
			victims := []int{hooks - 1, 0}
			for _, i := range rng.Perm(hooks - 2)[:hooks/2] {
				victims = append(victims, i+1)
			}
			rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
			cancelled := make(map[int]bool)
			for _, i := range victims {
				if !cancels[i]() {
					t.Fatalf("cancel of armed sentinel %d reported false", i)
				}
				cancelled[i] = true
			}
			for _, i := range victims {
				if cancels[i]() {
					t.Fatalf("second cancel of sentinel %d reported true", i)
				}
			}
			c.Increment(6)
			want := int32(hooks - len(victims))
			deadline := time.Now().Add(5 * time.Second)
			for {
				var total int32
				for i := range fires {
					total += fires[i].Load()
				}
				if total >= want || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(5 * time.Millisecond) // room for a wrong extra fire
			for i := range fires {
				got, exp := fires[i].Load(), int32(1)
				if cancelled[i] {
					exp = 0
				}
				if got != exp {
					t.Errorf("sentinel %d (cancelled %v) fired %d times, want %d", i, cancelled[i], got, exp)
				}
			}
			if sc, ok := c.(*ShardedCounter); ok {
				if g := sc.gate.Load(); g != 0 {
					t.Errorf("gate = %d with every sentinel fired or cancelled, want 0", g)
				}
			}
			c.Reset()
		})
	}
}

// TestSentinelBlocksReset pins the Reset misuse contract: an armed
// sentinel is a registered waiter, so Reset must refuse to roll the
// value out from under it.
func TestSentinelBlocksReset(t *testing.T) {
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			c := NewImpl(impl)
			cancel, armed := Sentinel(c.(Sentineler), 7, func() {})
			if !armed {
				t.Fatal("not armed")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Reset with an armed sentinel did not panic")
					}
				}()
				c.Reset()
			}()
			cancel()
			c.Reset()
		})
	}
}

// TestSentinelShardedGate pins the sharded-specific invariant: the
// waiter gate rises for the sentinel's armed lifetime and falls exactly
// once on fire or cancel, so the striped fast path resumes afterwards.
func TestSentinelShardedGate(t *testing.T) {
	c := NewSharded()
	fired := make(chan struct{})
	cancel, armed := Sentinel(c, 3, func() { close(fired) })
	if !armed {
		t.Fatal("not armed")
	}
	if g := c.gate.Load(); g != 1 {
		t.Fatalf("gate = %d while a sentinel is armed, want 1", g)
	}
	c.Increment(3)
	waitFired(t, fired)
	if g := c.gate.Load(); g != 0 {
		t.Fatalf("gate = %d after the sentinel fired, want 0", g)
	}
	if cancel() {
		t.Fatal("cancel after fire reported true")
	}
	if g := c.gate.Load(); g != 0 {
		t.Fatalf("gate = %d after a late cancel, want 0", g)
	}

	cancel2, armed2 := Sentinel(c, 10, func() {})
	if !armed2 {
		t.Fatal("second sentinel not armed")
	}
	if !cancel2() {
		t.Fatal("cancel reported false")
	}
	if g := c.gate.Load(); g != 0 {
		t.Fatalf("gate = %d after cancel, want 0", g)
	}
}

// TestSentinelCancelLosesOnceClaimed pins satisfied-beats-cancelled
// for sentinels: once an increment has claimed the level's node, cancel
// reports false even though the hook has not run yet, and the wake that
// increment owns fires it exactly once. This is what lets counterd
// answer a Cancel that follows a satisfying Increment with the wake
// alone, whichever incrementer claimed the node.
func TestSentinelCancelLosesOnceClaimed(t *testing.T) {
	c := NewSharded()
	fires := 0
	cancel, armed := Sentinel(c, 1, func() { fires++ })
	if !armed {
		t.Fatal("not armed")
	}
	// Increment's locked path up to, not including, its wakeBatch.
	c.wl.lock()
	c.storePublishedLocked(1)
	c.wl.unlock()
	head := c.idx.collect(1)
	if head == nil {
		t.Fatal("the increment claimed no node")
	}
	if cancel() {
		t.Fatal("cancel won against a claimed node")
	}
	c.wl.wakeBatch(head)
	if fires != 1 {
		t.Fatalf("hook fired %d times, want 1", fires)
	}
	if cancel() {
		t.Fatal("cancel after the fire reported true")
	}
	if g := c.gate.Load(); g != 0 {
		t.Fatalf("gate = %d after the fire, want 0", g)
	}
	c.Reset() // nothing left suspended
}

// TestSentinelBroadcastSpurious pins the spurious-fire semantics the
// Sentineler contract allows: the broadcast ablation kicks its hooks on
// every increment, satisfied level or not.
func TestSentinelBroadcastSpurious(t *testing.T) {
	c := NewBroadcast()
	fired := make(chan struct{})
	_, armed := Sentinel(c, 100, func() { close(fired) })
	if !armed {
		t.Fatal("not armed")
	}
	c.Increment(1) // far below 100, but the round node wakes everyone
	waitFired(t, fired)
	if got := c.Value(); got != 1 {
		t.Fatalf("value = %d, want 1", got)
	}
}

// TestSentinelRegistrationRace hammers the arm/increment race: arming a
// sentinel concurrently with the satisfying increment must either fire
// exactly once or report not-armed — never lose the hook.
func TestSentinelRegistrationRace(t *testing.T) {
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			const rounds = 200
			for r := 0; r < rounds; r++ {
				c := NewImpl(impl)
				s := c.(Sentineler)
				fired := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.Increment(1)
				}()
				cancel, armed := Sentinel(s, 1, func() { close(fired) })
				wg.Wait()
				if armed {
					waitFired(t, fired)
					if cancel() {
						t.Fatal("cancel after a mandatory fire reported true")
					}
				}
			}
		})
	}
}

// TestSentinelStress arms, fires, and cancels sentinels from many
// goroutines against a running incrementer — the -race leg's coverage
// of the hook chain's locking.
func TestSentinelStress(t *testing.T) {
	for _, impl := range Registry() {
		t.Run(string(impl), func(t *testing.T) {
			c := NewImpl(impl)
			s := c.(Sentineler)
			const (
				arms   = 64
				target = 1000
			)
			var fires atomic.Uint64
			var wg sync.WaitGroup
			for i := 0; i < arms; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					level := uint64(i%target + 1)
					cancel, armed := Sentinel(s, level, func() { fires.Add(1) })
					if armed && i%3 == 0 {
						cancel()
					}
				}(i)
			}
			var iwg sync.WaitGroup
			iwg.Add(1)
			go func() {
				defer iwg.Done()
				for v := 0; v < target; v++ {
					c.Increment(1)
				}
			}()
			wg.Wait()
			iwg.Wait()
			c.Check(target)
		})
	}
}
