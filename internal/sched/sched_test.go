package sched

import (
	"testing"
)

// section6Counter runs the paper's deterministic counter program under
// one seed and returns the final x.
func section6Counter(seed uint64) (int, Outcome) {
	x := 3
	var c Counter
	out := Run(seed,
		func(t *T) {
			c.Check(t, 0)
			x = x + 1
			c.Increment(t, 1)
		},
		func(t *T) {
			c.Check(t, 1)
			x = x * 2
			c.Increment(t, 1)
		},
	)
	return x, out
}

// TestCounterProgramSingleOutcomeAcrossSeeds: a thousand random
// schedules, one outcome — the section 6 determinacy claim on executable
// code.
func TestCounterProgramSingleOutcomeAcrossSeeds(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		x, out := section6Counter(seed)
		if out.Deadlock {
			t.Fatalf("seed %d: deadlock %v", seed, out)
		}
		if x != 8 {
			t.Fatalf("seed %d: x = %d, want 8 (schedule %v)", seed, x, out.Trace)
		}
	}
}

// TestLockProgramBothOutcomesAppear: the lock version reaches both 7 and
// 8 across seeds.
func TestLockProgramBothOutcomesAppear(t *testing.T) {
	seen := map[int]bool{}
	for seed := uint64(0); seed < 200 && len(seen) < 2; seed++ {
		x := 3
		var m Mutex
		out := Run(seed,
			func(t *T) {
				m.Lock(t)
				x = x + 1
				m.Unlock(t)
			},
			func(t *T) {
				m.Lock(t)
				x = x * 2
				m.Unlock(t)
			},
		)
		if out.Deadlock {
			t.Fatalf("seed %d: deadlock", seed)
		}
		seen[x] = true
	}
	if !seen[7] || !seen[8] {
		t.Fatalf("outcomes seen: %v, want both 7 and 8", seen)
	}
}

// TestDeterministicReplay: the same seed gives the same trace and result.
func TestDeterministicReplay(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		x1, o1 := section6Counter(seed)
		x2, o2 := section6Counter(seed)
		if x1 != x2 {
			t.Fatalf("seed %d: results differ", seed)
		}
		if len(o1.Trace) != len(o2.Trace) {
			t.Fatalf("seed %d: trace lengths differ", seed)
		}
		for i := range o1.Trace {
			if o1.Trace[i] != o2.Trace[i] {
				t.Fatalf("seed %d: traces differ at step %d", seed, i)
			}
		}
	}
}

// TestSeedsProduceDifferentSchedules: schedules actually vary with the
// seed (the fuzzing is not vacuous).
func TestSeedsProduceDifferentSchedules(t *testing.T) {
	traces := map[string]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		_, out := section6Counter(seed)
		key := ""
		for _, id := range out.Trace {
			key += string(rune('0' + id))
		}
		traces[key] = true
	}
	if len(traces) < 2 {
		t.Fatalf("50 seeds produced %d distinct schedules", len(traces))
	}
}

// TestDeadlockDetected: cyclic counter waiting is reported, with the
// blocked thread set, instead of hanging.
func TestDeadlockDetected(t *testing.T) {
	var a, b Counter
	out := Run(7,
		func(t *T) {
			a.Check(t, 1)
			b.Increment(t, 1)
		},
		func(t *T) {
			b.Check(t, 1)
			a.Increment(t, 1)
		},
	)
	if !out.Deadlock {
		t.Fatal("cyclic wait not reported as deadlock")
	}
	if len(out.BlockedThreads) != 2 {
		t.Fatalf("blocked threads %v, want both", out.BlockedThreads)
	}
}

// TestPartialDeadlock: one thread finishing while another is stuck is
// still a deadlock with the right blocked set.
func TestPartialDeadlock(t *testing.T) {
	var c Counter
	out := Run(3,
		func(t *T) { c.Check(t, 5) }, // nobody will provide 5
		func(t *T) { c.Increment(t, 1) },
	)
	if !out.Deadlock {
		t.Fatal("stuck checker not reported")
	}
	if len(out.BlockedThreads) != 1 || out.BlockedThreads[0] != 0 {
		t.Fatalf("blocked = %v, want [0]", out.BlockedThreads)
	}
}

// TestMutexMutualExclusionUnderAllSeeds: a critical-section counter is
// never corrupted whatever the schedule.
func TestMutexMutualExclusionUnderAllSeeds(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		shared := 0
		var m Mutex
		inc := func(t *T) {
			for i := 0; i < 5; i++ {
				m.Lock(t)
				v := shared
				t.Yield() // tempt the scheduler to interleave here
				shared = v + 1
				m.Unlock(t)
			}
		}
		out := Run(seed, inc, inc, inc)
		if out.Deadlock {
			t.Fatalf("seed %d: deadlock", seed)
		}
		if shared != 15 {
			t.Fatalf("seed %d: shared = %d, want 15 (lost update)", seed, shared)
		}
	}
}

// TestWithoutMutexUpdatesAreLost: the same program without the lock
// loses updates under some schedule — the harness can actually produce
// the bug.
func TestWithoutMutexUpdatesAreLost(t *testing.T) {
	lost := false
	for seed := uint64(0); seed < 300 && !lost; seed++ {
		shared := 0
		inc := func(t *T) {
			for i := 0; i < 3; i++ {
				v := shared
				t.Yield()
				shared = v + 1
			}
		}
		out := Run(seed, inc, inc)
		if out.Deadlock {
			t.Fatalf("seed %d: deadlock", seed)
		}
		if shared != 6 {
			lost = true
		}
	}
	if !lost {
		t.Fatal("no schedule exhibited the lost update in 300 seeds")
	}
}

// TestBroadcastOnScheduler: the section 5.3 pattern under many seeds.
func TestBroadcastOnScheduler(t *testing.T) {
	const items = 6
	for seed := uint64(0); seed < 200; seed++ {
		data := make([]int, items)
		sums := make([]int, 2)
		var c Counter
		reader := func(r int) func(*T) {
			return func(t *T) {
				for i := 0; i < items; i++ {
					c.Check(t, uint64(i)+1)
					sums[r] += data[i]
				}
			}
		}
		out := Run(seed,
			func(t *T) {
				for i := 0; i < items; i++ {
					data[i] = i + 1
					c.Increment(t, 1)
				}
			},
			reader(0), reader(1),
		)
		if out.Deadlock {
			t.Fatalf("seed %d: deadlock", seed)
		}
		if sums[0] != 21 || sums[1] != 21 {
			t.Fatalf("seed %d: sums = %v", seed, sums)
		}
	}
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unheld mutex did not panic")
		}
	}()
	var m Mutex
	Run(1, func(t *T) { m.Unlock(t) })
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{Deadlock: true, BlockedThreads: []int{1}, Trace: []int{0, 1}}
	if o.String() != "deadlock(blocked=[1], trace=[0 1])" {
		t.Fatalf("String = %q", o.String())
	}
	o = Outcome{Trace: []int{0}}
	if o.String() != "ok(trace=[0])" {
		t.Fatalf("String = %q", o.String())
	}
}
