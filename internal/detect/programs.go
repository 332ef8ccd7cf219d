package detect

import (
	"fmt"

	"monotonic/internal/explore"
)

// Program is one checked program: an explore.Program that Run executes,
// and Expects, which is "clean" for a correctly guarded program or
// "racy" for a seeded bug.
type Program struct {
	Name    string
	Expects string
	Program explore.Program
}

// Check runs p up to runs times, stopping at the first run that records
// a violation, since a race may need schedule luck to appear. It returns
// that run's violations, nil if every run was clean, and whether the
// result is the one p expects.
func (p Program) Check(runs int) (seen []Violation, ok bool) {
	for i := 0; i < runs && len(seen) == 0; i++ {
		seen = Run(p.Program)
	}
	return seen, (p.Expects == "clean") == (len(seen) == 0)
}

// Programs returns the guard-condition programs: section 6's counter,
// lock and unguarded programs, and the writer/readers broadcast of
// section 5.3 with and without the readers' Checks. The lock program is
// clean, since a lock orders the accesses, yet nondeterministic, which
// this checker does not see; internal/explore proves that half.
func Programs() []Program {
	unchecked := explore.BroadcastProgram()
	for _, reader := range []int{1, 2} {
		unchecked.Threads[reader] = explore.StripChecks(unchecked.Threads[reader])
	}
	return []Program{
		{"counter chain (section 6)", "clean", explore.CounterProgram()},
		{"lock region (section 6)", "clean", explore.LockProgram()},
		{"unguarded update (section 6)", "racy", explore.UnguardedProgram()},
		{"broadcast, all Checks present", "clean", explore.BroadcastProgram()},
		{"broadcast, reader Check removed", "racy", unchecked},
	}
}

// Run executes p once under a fresh registry, each thread on its own
// goroutine, over instrumented variables named x0, x1, ... (as
// explore.Render names them), counters and mutexes, and returns the
// violations it recorded. A data op reads its variable unless it is an
// OpWrite, and writes it unless it is an OpRead. Run panics on a program
// that uses a semaphore, which only the explorer models, and blocks
// forever on one that deadlocks.
func Run(p explore.Program) []Violation {
	initial, nc, nl, ns := p.Start()
	if ns > 0 {
		panic("detect: semaphores are explorer-only")
	}
	reg := NewRegistry()
	root := reg.Root()
	vars := make([]*Var[int64], len(initial))
	for i, v := range initial {
		vars[i] = NewVar(root, fmt.Sprintf("x%d", i), v)
	}
	counters := make([]Counter, nc)
	mutexes := make([]Mutex, nl)
	bodies := make([]func(*Thread), len(p.Threads))
	for i, ops := range p.Threads {
		bodies[i] = func(th *Thread) {
			var acc int64 // the thread's register
			for _, op := range ops {
				switch op.Kind {
				case explore.OpInc:
					counters[op.Target].Increment(th, uint64(op.A))
				case explore.OpCheck:
					counters[op.Target].Check(th, uint64(op.A))
				case explore.OpLock:
					mutexes[op.Target].Lock(th)
				case explore.OpUnlock:
					mutexes[op.Target].Unlock(th)
				default:
					x := vars[op.Target]
					var cur int64
					if op.Kind != explore.OpWrite {
						cur = x.Read(th)
					}
					if v, toVar := op.Eval(cur, acc); toVar {
						x.Write(th, v)
					} else {
						acc = v
					}
				}
			}
		}
	}
	root.Go(bodies...)
	return reg.Violations()
}
