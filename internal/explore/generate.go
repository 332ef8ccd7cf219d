package explore

import "monotonic/internal/workload"

// RandomGuardedProgram generates a random program that satisfies the
// section 6 guard condition by construction, so exhaustive exploration
// must find exactly one outcome and no deadlock. The construction builds
// a random dependency DAG over "tasks" and realizes it with counters:
//
//   - Each task i has its own counter i and writes its own variable i.
//   - Task i first Checks, for every dependency j < i, counter j at
//     level 1; then reads one dependency's variable (folding it into its
//     own), writes its variable, and finally Increments its counter.
//   - Tasks are dealt onto `threads` threads in contiguous index blocks,
//     so dependencies always point to the same or an earlier thread and
//     the sequential schedule (thread 0 to completion, then thread 1, ...)
//     respects the DAG and never deadlocks — by the section 6 theorem,
//     every schedule then produces the sequential outcome.
//
// Returned programs are small (tasks <= 6, threads <= 3 recommended) so
// exploration stays cheap.
func RandomGuardedProgram(seed uint64, tasks, threads int) Program {
	if tasks < 1 {
		tasks = 1
	}
	if threads < 1 {
		threads = 1
	}
	rng := workload.NewRNG(seed)
	p := Program{InitVars: make([]int64, tasks)}
	for i := range p.InitVars {
		p.InitVars[i] = int64(i + 1)
	}
	threadOps := make([][]Op, threads)
	for i := 0; i < tasks; i++ {
		t := i * threads / tasks
		var deps []int
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				deps = append(deps, j)
			}
		}
		for _, j := range deps {
			threadOps[t] = append(threadOps[t], Check(j, 1))
		}
		if len(deps) > 0 {
			src := deps[rng.Intn(len(deps))]
			threadOps[t] = append(threadOps[t],
				Read(src),
				Fold(i, 10),
			)
		} else {
			threadOps[t] = append(threadOps[t], Modify(i, Mul, 3))
		}
		threadOps[t] = append(threadOps[t], Inc(i, 1))
	}
	p.Threads = threadOps
	return p
}

// RandomUnguardedProgram is RandomGuardedProgram with every Check
// stripped out: tasks on different threads race freely on their shared
// reads, so many seeds produce multiple outcomes (though some DAGs are
// insensitive by luck — callers should aggregate over seeds).
func RandomUnguardedProgram(seed uint64, tasks, threads int) Program {
	p := RandomGuardedProgram(seed, tasks, threads)
	for t, ops := range p.Threads {
		p.Threads[t] = StripChecks(ops)
	}
	return p
}

// StripChecks returns a thread's ops without its Checks: the same
// thread with its guards removed.
func StripChecks(ops []Op) []Op {
	var kept []Op
	for _, op := range ops {
		if op.Kind != OpCheck {
			kept = append(kept, op)
		}
	}
	return kept
}
