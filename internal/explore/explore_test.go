package explore

import (
	"testing"
)

// TestSection6LockNondeterministic (E8): exhaustive exploration of the
// lock program finds exactly the two outcomes 7 and 8 and no deadlock.
func TestSection6LockNondeterministic(t *testing.T) {
	res := MustExplore(LockProgram())
	if res.Deadlock {
		t.Fatal("lock program deadlocked")
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("lock program outcomes = %v, want 2", res.OutcomeList())
	}
	if _, ok := res.Outcomes["x0=7"]; !ok {
		t.Error("missing outcome x=7 (x*2 then x+1)")
	}
	if _, ok := res.Outcomes["x0=8"]; !ok {
		t.Error("missing outcome x=8 (x+1 then x*2)")
	}
}

// TestSection6CounterDeterministic (E8): the counter program has exactly
// one outcome, 8, on every schedule, and never deadlocks.
func TestSection6CounterDeterministic(t *testing.T) {
	res := MustExplore(CounterProgram())
	if res.Deadlock {
		t.Fatal("counter program deadlocked")
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("counter program outcomes = %v, want exactly one", res.OutcomeList())
	}
	if _, ok := res.Outcomes["x0=8"]; !ok {
		t.Fatalf("counter program outcome %v, want x0=8", res.OutcomeList())
	}
}

// TestSection6UnguardedNondeterministic (E8): removing the guard makes
// the program nondeterministic even with atomic statements, and the
// split-access version additionally loses updates.
func TestSection6UnguardedNondeterministic(t *testing.T) {
	res := MustExplore(UnguardedProgram())
	if len(res.Outcomes) != 2 {
		t.Fatalf("unguarded atomic outcomes = %v, want 2", res.OutcomeList())
	}
	split := MustExplore(UnguardedSplitProgram())
	if len(split.Outcomes) <= 2 {
		t.Fatalf("split outcomes = %v, want > 2 (lost updates)", split.OutcomeList())
	}
	// Lost-update outcomes: both threads read 3; final is 4 (write of
	// x+1 last) or 6 (write of x*2 last).
	if _, ok := split.Outcomes["x0=4"]; !ok {
		t.Error("missing lost-update outcome x0=4")
	}
	if _, ok := split.Outcomes["x0=6"]; !ok {
		t.Error("missing lost-update outcome x0=6")
	}
}

// TestSequentialEquivalenceTheorem (E9): for each counter-only guarded
// program, if the sequential schedule succeeds, the multithreaded
// outcome set is exactly {sequential outcome} and there is no deadlock;
// if the sequential schedule deadlocks, nothing is claimed (DeadlockProgram
// shows multithreaded execution deadlocks too).
func TestSequentialEquivalenceTheorem(t *testing.T) {
	programs := map[string]Program{
		"counter":   CounterProgram(),
		"ordered-3": OrderedAccumulateProgram(3),
		"ordered-4": OrderedAccumulateProgram(4),
		"broadcast": BroadcastProgram(),
	}
	for name, p := range programs {
		seqVars, seqDeadlock := SequentialOutcome(p)
		if seqDeadlock {
			t.Fatalf("%s: sequential execution deadlocked unexpectedly", name)
		}
		res := MustExplore(p)
		if res.Deadlock {
			t.Errorf("%s: multithreaded deadlock despite sequential success (trace %v)", name, res.DeadlockTrace)
		}
		if len(res.Outcomes) != 1 {
			t.Errorf("%s: outcomes %v, want exactly the sequential one", name, res.OutcomeList())
			continue
		}
		if _, ok := res.Outcomes[Render(seqVars)]; !ok {
			t.Errorf("%s: multithreaded outcome differs from sequential %v", name, seqVars)
		}
	}
}

// TestDeadlockDetection: the cyclic-wait counter program deadlocks both
// sequentially and multithreaded, and the explorer reports a trace.
func TestDeadlockDetection(t *testing.T) {
	p := DeadlockProgram()
	if _, seqDeadlock := SequentialOutcome(p); !seqDeadlock {
		t.Fatal("sequential execution did not deadlock")
	}
	res := MustExplore(p)
	if !res.Deadlock {
		t.Fatal("multithreaded deadlock not found")
	}
	if len(res.Outcomes) != 0 {
		t.Fatalf("deadlocking program reported outcomes %v", res.OutcomeList())
	}
}

// TestLockAccumulateOutcomeGrowth: the lock fold reaches every arrival
// order — n! outcomes when the fold distinguishes all orders — while the
// counter fold reaches exactly one.
func TestLockAccumulateOutcomeGrowth(t *testing.T) {
	for _, n := range []int{2, 3} {
		lock := MustExplore(LockAccumulateProgram(n))
		ordered := MustExplore(OrderedAccumulateProgram(n))
		fact := 1
		for i := 2; i <= n; i++ {
			fact *= i
		}
		if len(lock.Outcomes) != fact {
			t.Errorf("n=%d: lock outcomes %d, want %d", n, len(lock.Outcomes), fact)
		}
		if len(ordered.Outcomes) != 1 {
			t.Errorf("n=%d: ordered outcomes %v, want 1", n, ordered.OutcomeList())
		}
	}
}

// TestSemaphoreModel: a binary semaphore provides mutual exclusion in the
// model: the split-access program guarded by P/V loses no updates, but
// remains order-nondeterministic.
func TestSemaphoreModel(t *testing.T) {
	p := Program{
		InitVars: []int64{InitialX},
		InitSems: []int{1},
		Threads: [][]Op{
			{P(0), Read(0), Write(0, Add, 1), V(0)},
			{P(0), Read(0), Write(0, Mul, 2), V(0)},
		},
	}
	res := MustExplore(p)
	if res.Deadlock {
		t.Fatal("semaphore program deadlocked")
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes %v, want the two orders only", res.OutcomeList())
	}
}

// TestMonotonicityInModel: once a Check's level is reached it stays
// enabled — a thread that checks the same level twice cannot block the
// second time. (Regression guard on the model's counter semantics.)
func TestMonotonicityInModel(t *testing.T) {
	p := Program{
		Threads: [][]Op{
			{Inc(0, 2)},
			{Check(0, 1), Check(0, 1), Check(0, 2), Modify(0, Set, 1)},
		},
	}
	res := MustExplore(p)
	if res.Deadlock {
		t.Fatal("monotonic rechecks deadlocked")
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes %v", res.OutcomeList())
	}
}

// TestStateLimit: the explorer reports ErrTooManyStates rather than
// hanging on programs past the limit.
func TestStateLimit(t *testing.T) {
	p := LockAccumulateProgram(5)
	_, err := Explore(p, 10)
	if err != ErrTooManyStates {
		t.Fatalf("err = %v, want ErrTooManyStates", err)
	}
}

// TestMemoizationSharesStates: exploring a wide program is feasible
// because states, not schedules, bound the work. 8 incrementing threads
// have 8! = 40320 schedules but only 2^8 pc-combinations.
func TestMemoizationSharesStates(t *testing.T) {
	threads := make([][]Op, 8)
	for i := range threads {
		threads[i] = []Op{Inc(0, 1)}
	}
	res := MustExplore(Program{Threads: threads})
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes %v", res.OutcomeList())
	}
	if res.States > 300 {
		t.Fatalf("states = %d, memoization not effective", res.States)
	}
}

// TestWitnessesReplay: every recorded witness schedule replays to exactly
// its outcome, for several programs.
func TestWitnessesReplay(t *testing.T) {
	programs := []Program{
		LockProgram(),
		CounterProgram(),
		UnguardedSplitProgram(),
		OrderedAccumulateProgram(3),
		LockAccumulateProgram(3),
	}
	for pi, p := range programs {
		res := MustExplore(p)
		if len(res.Witnesses) != len(res.Outcomes) {
			t.Fatalf("program %d: %d witnesses for %d outcomes", pi, len(res.Witnesses), len(res.Outcomes))
		}
		for key, schedule := range res.Witnesses {
			vars, ok := Replay(p, schedule)
			if !ok {
				t.Fatalf("program %d: witness for %q is not a valid schedule", pi, key)
			}
			if Render(vars) != key {
				t.Fatalf("program %d: witness replays to %q, recorded as %q", pi, Render(vars), key)
			}
		}
	}
}

func TestReplayRejectsBadSchedules(t *testing.T) {
	p := CounterProgram()
	if _, ok := Replay(p, []int{5}); ok {
		t.Fatal("out-of-range thread accepted")
	}
	if _, ok := Replay(p, []int{1}); ok {
		t.Fatal("blocked thread accepted (thread 1 starts with Check(1))")
	}
	if _, ok := Replay(p, []int{0, 0, 0}); ok {
		t.Fatal("incomplete schedule accepted")
	}
}

func TestSequentialOutcomeRunsInProgramOrder(t *testing.T) {
	p := LockProgram()
	vars, deadlock := SequentialOutcome(p)
	if deadlock {
		t.Fatal("lock program sequentially deadlocked")
	}
	if vars[0] != 8 { // (3+1)*2
		t.Fatalf("sequential x = %d, want 8", vars[0])
	}
}
