package integration_test

import (
	"fmt"
	"testing"

	"monotonic/internal/detect"
	"monotonic/internal/explore"
	"monotonic/internal/sched"
)

// Cross-validation between the three section 6 verification tools, all
// running the same explore.Program values: the exhaustive model checker
// (internal/explore), the executable schedule fuzzer (internal/sched)
// and the vector-clock guard checker (internal/detect). The fuzzer can
// only ever observe a subset of the model's outcomes, and for these
// small programs enough seeds observe all of it.

func TestLockFoldOutcomesAgreeAcrossTools(t *testing.T) {
	const n = 4
	p := explore.LockAccumulateProgram(n)
	model := explore.MustExplore(p)

	observed := map[string]bool{}
	for seed := uint64(0); seed < 3000; seed++ {
		vars, out := sched.RunProgram(seed, p)
		if out.Deadlock {
			t.Fatalf("seed %d deadlocked", seed)
		}
		observed[explore.Render(vars)] = true
	}

	if len(observed) != len(model.Outcomes) {
		t.Fatalf("fuzzer observed %d outcomes, model has %d", len(observed), len(model.Outcomes))
	}
	for key := range observed {
		if _, ok := model.Outcomes[key]; !ok {
			t.Fatalf("fuzzer outcome %s not reachable in the model", key)
		}
	}
}

func TestCounterFoldSingleOutcomeAcrossTools(t *testing.T) {
	const n = 4
	p := explore.OrderedAccumulateProgram(n)
	model := explore.MustExplore(p)
	if len(model.Outcomes) != 1 {
		t.Fatalf("model outcomes %v", model.OutcomeList())
	}
	want := model.OutcomeList()[0]

	for seed := uint64(0); seed < 500; seed++ {
		vars, out := sched.RunProgram(seed, p)
		if out.Deadlock {
			t.Fatalf("seed %d deadlocked", seed)
		}
		if got := explore.Render(vars); got != want {
			t.Fatalf("seed %d: %s, model says %s", seed, got, want)
		}
	}
}

// TestCheckersAgreeOnEveryProgram runs every program that cmd/explore,
// E8, E9, E15 and E18 run, and RandomGuardedProgram and
// RandomUnguardedProgram for seeds 1-200 at 5 tasks on 2 and 3
// threads, through all three checkers, and asserts:
//
//   - over 50 seeds, sched's outcomes are a subset of the explorer's,
//     and sched deadlocks only where the explorer finds a deadlock;
//   - detect.Run is clean in each of 5 runs of every guarded program;
//   - detect.Run flags, in each of 5 runs, every unguarded program for
//     which the explorer finds more than one outcome.
//
// detect's verdict on one run holds on every run only when the
// increments that satisfy each Check are ordered among themselves. Every
// program checked here is in that scope by construction: a generated
// program gives each task its own counter, which one thread increments
// once; each named one has one incrementing thread per counter, chains
// its incrementers through Checks (the section 6 counter program, the
// ordered folds and the APSP skeleton), or Checks no level above 0 (the
// unguarded program). detect is not run on a program the explorer can
// deadlock, since its goroutines would block forever.
func TestCheckersAgreeOnEveryProgram(t *testing.T) {
	type checked struct {
		name    string
		p       explore.Program
		guarded bool
	}
	// E15's rows hold the lock, counter, unguarded and broadcast programs
	// that E8, E9, E18 and cmd/explore run too.
	var programs []checked
	for _, p := range detect.Programs() {
		programs = append(programs, checked{p.Name, p.Program, p.Expects == "clean"})
	}
	programs = append(programs,
		checked{"split", explore.UnguardedSplitProgram(), false},
		checked{"deadlock", explore.DeadlockProgram(), true},
		checked{"stencil", explore.StencilProgram(4, 2), true},
		checked{"stencil-broken", explore.BrokenStencilProgram(4, 2), false},
		checked{"apsp", explore.APSPSkeletonProgram(3, 3), true},
	)
	for n := 2; n <= 5; n++ { // E8's growth table covers E9's, E18's and cmd/explore's folds
		programs = append(programs,
			checked{fmt.Sprintf("ordered fold, %d threads", n), explore.OrderedAccumulateProgram(n), true},
			checked{fmt.Sprintf("lock fold, %d threads", n), explore.LockAccumulateProgram(n), true},
		)
	}
	for seed := uint64(1); seed <= 200; seed++ {
		for _, threads := range []int{2, 3} {
			programs = append(programs,
				checked{fmt.Sprintf("guarded seed %d on %d threads", seed, threads), explore.RandomGuardedProgram(seed, 5, threads), true},
				checked{fmt.Sprintf("unguarded seed %d on %d threads", seed, threads), explore.RandomUnguardedProgram(seed, 5, threads), false},
			)
		}
	}

	for _, c := range programs {
		model, err := explore.Explore(c.p, 1<<21)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for seed := uint64(1); seed <= 50; seed++ {
			vars, out := sched.RunProgram(seed, c.p)
			if out.Deadlock {
				if !model.Deadlock {
					t.Errorf("%s: sched seed %d deadlocked (%v), the explorer finds no deadlock", c.name, seed, out)
				}
				continue
			}
			if _, ok := model.Outcomes[explore.Render(vars)]; !ok {
				t.Errorf("%s: sched seed %d (schedule %v) reached %s, not among the explorer's %v", c.name, seed, out.Trace, explore.Render(vars), model.OutcomeList())
			}
		}
		if model.Deadlock || (!c.guarded && len(model.Outcomes) < 2) {
			continue
		}
		for run := 0; run < 5; run++ {
			switch seen := detect.Run(c.p); {
			case c.guarded && len(seen) > 0:
				t.Errorf("%s: detect run %d flagged a guarded program: %v", c.name, run, seen)
			case !c.guarded && len(seen) == 0:
				t.Errorf("%s: detect run %d was clean, the explorer finds %d outcomes", c.name, run, len(model.Outcomes))
			}
		}
	}
}
