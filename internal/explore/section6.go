package explore

// Canonical programs from the paper, expressed in the abstract op
// language. Variable 0 is x with initial value 3 (so the two outcomes of
// the lock program, (3+1)*2=8 and 3*2+1=7, are distinguishable).

// InitialX is the initial value of x in the section 6 programs.
const InitialX = 3

// LockProgram is section 6's first example:
//
//	multithreaded {
//	  { xLock.Lock();  x = x+1;  xLock.Unlock(); }
//	  { xLock.Lock();  x = x*2;  xLock.Unlock(); }
//	}
func LockProgram() Program {
	return Program{
		InitVars: []int64{InitialX},
		Threads: [][]Op{
			{Lock(0), Modify(0, Add, 1), Unlock(0)},
			{Lock(0), Modify(0, Mul, 2), Unlock(0)},
		},
	}
}

// CounterProgram is section 6's deterministic counter example:
//
//	multithreaded {
//	  { xCount.Check(0);  x = x+1;  xCount.Increment(1); }
//	  { xCount.Check(1);  x = x*2;  xCount.Increment(1); }
//	}
func CounterProgram() Program {
	return Program{
		InitVars: []int64{InitialX},
		Threads: [][]Op{
			{Check(0, 0), Modify(0, Add, 1), Inc(0, 1)},
			{Check(0, 1), Modify(0, Mul, 2), Inc(0, 1)},
		},
	}
}

// UnguardedProgram is section 6's erroneous example: both threads check
// level 0, so the operations on x are concurrent.
func UnguardedProgram() Program {
	return Program{
		InitVars: []int64{InitialX},
		Threads: [][]Op{
			{Check(0, 0), Modify(0, Add, 1), Inc(0, 1)},
			{Check(0, 0), Modify(0, Mul, 2), Inc(0, 1)},
		},
	}
}

// UnguardedSplitProgram is UnguardedProgram with the read-modify-write
// split into a load and a store, exposing lost updates in addition to
// order nondeterminism.
func UnguardedSplitProgram() Program {
	return Program{
		InitVars: []int64{InitialX},
		Threads: [][]Op{
			{Check(0, 0), Read(0), Write(0, Add, 1), Inc(0, 1)},
			{Check(0, 0), Read(0), Write(0, Mul, 2), Inc(0, 1)},
		},
	}
}

// DeadlockProgram is a counter program whose sequential execution
// deadlocks (thread 0 checks a level only thread 1 provides, and thread 1
// checks a level only thread 0 provides, each before incrementing):
// multithreaded execution must expose the deadlock too.
func DeadlockProgram() Program {
	return Program{
		Threads: [][]Op{
			{Check(0, 1), Inc(1, 1)},
			{Check(1, 1), Inc(0, 1)},
		},
	}
}

// OrderedAccumulateProgram is the section 5.2 pattern for n threads:
// thread i does Check(i); x = x*2+i; Increment(1). The fold is
// non-commutative, so any order change would change the outcome.
func OrderedAccumulateProgram(n int) Program {
	threads := make([][]Op, n)
	for i := range threads {
		threads[i] = []Op{
			Check(0, int64(i)),
			Modify(0, Mul, 2),
			Modify(0, Add, int64(i)),
			Inc(0, 1),
		}
	}
	return Program{Threads: threads}
}

// LockAccumulateProgram is the same fold guarded by a lock instead: every
// arrival order is reachable, so the outcome set grows with n!.
func LockAccumulateProgram(n int) Program {
	threads := make([][]Op, n)
	for i := range threads {
		threads[i] = []Op{
			Lock(0),
			Modify(0, Mul, 2),
			Modify(0, Add, int64(i)),
			Unlock(0),
		}
	}
	return Program{Threads: threads}
}

// BroadcastProgram is a one-writer two-reader section 5.3 skeleton over
// an "array" of two variables: the writer sets x0 then x1, incrementing
// after each; readers check before reading into their registers and store
// the sum into their own result variables. Deterministic by construction.
func BroadcastProgram() Program {
	return Program{
		Threads: [][]Op{
			{Modify(0, Set, 10), Inc(0, 1), Modify(1, Set, 20), Inc(0, 1)},
			{Check(0, 1), Read(0), Write(2, Add, 0), Check(0, 2), Read(1), Write(3, Add, 0)},
			{Check(0, 2), Read(1), Write(4, Add, 0), Read(0), Write(5, Add, 0)},
		},
	}
}

// SequentialOutcome runs the program on the single schedule that executes
// thread 0 to completion, then thread 1, and so on — "execution ignoring
// the multithreaded keyword" (section 6). It reports the final variables
// and whether that schedule deadlocks (a blocked Check with no one left
// to provide it).
func SequentialOutcome(p Program) (vars []int64, deadlock bool) {
	s := p.start()
	for t := range p.Threads {
		for s.pcs[t] < len(p.Threads[t]) {
			if !p.enabled(s, t) {
				return s.vars, true
			}
			s = p.step(s, t)
		}
	}
	return s.vars, false
}
