package explore

import (
	"testing"
	"testing/quick"
)

// TestQuickGuardedProgramsDeterministic: every randomly generated program
// that satisfies the guard condition by construction has exactly one
// outcome — the sequential one — and no reachable deadlock, over every
// schedule. This is the section 6 theorem property-tested across program
// space, not just the paper's examples.
func TestQuickGuardedProgramsDeterministic(t *testing.T) {
	f := func(seed uint64, tasks8, threads8 uint8) bool {
		tasks := int(tasks8%6) + 1
		threads := int(threads8%3) + 1
		p := RandomGuardedProgram(seed, tasks, threads)
		seqVars, seqDeadlock := SequentialOutcome(p)
		if seqDeadlock {
			t.Logf("seed %d: sequential schedule deadlocked (generator bug)", seed)
			return false
		}
		res, err := Explore(p, 1<<21)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Deadlock || len(res.Outcomes) != 1 {
			t.Logf("seed %d: deadlock=%v outcomes=%v", seed, res.Deadlock, res.OutcomeList())
			return false
		}
		_, ok := res.Outcomes[Render(seqVars)]
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestUnguardedProgramsOftenNondeterministic: stripping the Checks makes
// a healthy fraction of the generated programs nondeterministic.
func TestUnguardedProgramsOftenNondeterministic(t *testing.T) {
	nondet := 0
	const trials = 60
	for seed := uint64(0); seed < trials; seed++ {
		p := RandomUnguardedProgram(seed, 5, 2)
		res, err := Explore(p, 1<<21)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outcomes) > 1 {
			nondet++
		}
	}
	if nondet < trials/10 {
		t.Fatalf("only %d/%d unguarded programs nondeterministic; generator too tame", nondet, trials)
	}
}

// TestGeneratorDeterministicFromSeed: the same seed yields the same
// program.
func TestGeneratorDeterministicFromSeed(t *testing.T) {
	a := RandomGuardedProgram(42, 5, 2)
	b := RandomGuardedProgram(42, 5, 2)
	if len(a.Threads) != len(b.Threads) {
		t.Fatal("thread counts differ")
	}
	for t2 := range a.Threads {
		if len(a.Threads[t2]) != len(b.Threads[t2]) {
			t.Fatal("op counts differ")
		}
		for i := range a.Threads[t2] {
			if a.Threads[t2][i] != b.Threads[t2][i] {
				t.Fatal("ops differ")
			}
		}
	}
}

// TestGeneratorDegenerateParams: silly sizes are clamped, not crashed.
func TestGeneratorDegenerateParams(t *testing.T) {
	p := RandomGuardedProgram(1, 0, 0)
	res := MustExplore(p)
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes %v", res.OutcomeList())
	}
}
