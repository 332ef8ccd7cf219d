// Package sched is a deterministic cooperative scheduler for testing real
// Go closures under controlled thread interleavings: the executable
// complement to internal/explore's model checker. Bodies run as virtual
// threads whose only preemption points are synchronization operations
// (and explicit Yields); the scheduler picks which runnable thread
// proceeds using a seeded RNG, so a seed identifies a schedule exactly —
// run the same seed, get the same interleaving, byte for byte.
//
// Synchronization objects (Counter, Mutex) are provided by the scheduler
// itself with the same semantics as the real library: a Check suspends
// the virtual thread until the counter reaches the level, an Increment
// wakes every satisfied waiter. Because blocking is visible to the
// scheduler, deadlocks are detected exactly (no runnable thread, some
// thread blocked) instead of hanging the test.
//
// This is how the paper's section 6 development methodology looks as a
// tool: run a counter program under a thousand seeds and observe a single
// outcome; run the lock version and watch the outcome set grow.
// RunProgram does this for internal/explore's programs, so the fuzzer and
// the exhaustive explorer check the same program.
package sched

import (
	"fmt"
	"sort"

	"monotonic/internal/explore"
	"monotonic/internal/workload"
)

// T is a virtual thread's handle; bodies receive it and must use it for
// every synchronization operation.
type T struct {
	s  *Scheduler
	id int

	resume chan struct{} // scheduler -> thread: proceed
	pause  chan struct{} // thread -> scheduler: I stopped (yield/block/finish)
	kill   chan struct{} // closed at run end: parked threads unwind and exit

	blocked  func() bool // non-nil while blocked: reports whether now runnable
	done     bool
	panicVal any // non-nil if the body panicked; re-raised by Run
}

// killed is the panic value used to unwind virtual threads still parked
// when a run ends (deadlocked threads); their deferred functions run, the
// goroutine exits, and nothing leaks.
type killed struct{}

// ID returns the virtual thread's index.
func (t *T) ID() int { return t.id }

// Yield is an explicit preemption point.
func (t *T) Yield() {
	t.s.yield(t, nil)
}

// Scheduler drives one run.
type Scheduler struct {
	rng     *workload.RNG
	threads []*T
	trace   []int
}

// Outcome describes one completed run.
type Outcome struct {
	// Deadlock reports that some thread remained blocked with no
	// runnable thread left.
	Deadlock bool
	// BlockedThreads lists the stuck thread ids when Deadlock is true.
	BlockedThreads []int
	// Trace is the schedule taken: the thread id chosen at each
	// scheduling decision.
	Trace []int
}

// Run executes the bodies as virtual threads under the schedule derived
// from seed. It returns after every thread finishes or a deadlock is
// detected. Bodies communicate only through scheduler sync objects and
// plain shared memory (safe: exactly one virtual thread runs at a time).
func Run(seed uint64, bodies ...func(t *T)) Outcome {
	s := &Scheduler{rng: workload.NewRNG(seed)}
	for i, body := range bodies {
		t := &T{
			s:      s,
			id:     i,
			resume: make(chan struct{}),
			pause:  make(chan struct{}),
			kill:   make(chan struct{}),
		}
		s.threads = append(s.threads, t)
		go func(t *T, body func(*T)) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(killed); ok {
						return // unwound at run end; exit silently
					}
					// Propagate the body's panic to Run's caller
					// through the scheduler handshake.
					t.panicVal = r
					t.done = true
					t.pause <- struct{}{}
				}
			}()
			select {
			case <-t.resume: // first scheduling
			case <-t.kill:
				return
			}
			body(t)
			t.done = true
			t.pause <- struct{}{}
		}(t, body)
	}
	out := s.loop()
	for _, t := range s.threads {
		close(t.kill)
	}
	for _, t := range s.threads {
		if t.panicVal != nil {
			panic(t.panicVal)
		}
	}
	return out
}

// loop repeatedly picks a runnable thread and lets it run to its next
// preemption point.
func (s *Scheduler) loop() Outcome {
	for {
		runnable := s.runnable()
		if len(runnable) == 0 {
			var blockedIDs []int
			for _, t := range s.threads {
				if !t.done {
					blockedIDs = append(blockedIDs, t.id)
				}
			}
			sort.Ints(blockedIDs)
			return Outcome{
				Deadlock:       len(blockedIDs) > 0,
				BlockedThreads: blockedIDs,
				Trace:          s.trace,
			}
		}
		t := runnable[s.rng.Intn(len(runnable))]
		s.trace = append(s.trace, t.id)
		t.blocked = nil
		t.resume <- struct{}{}
		<-t.pause
	}
}

// runnable returns the threads that can take a step.
func (s *Scheduler) runnable() []*T {
	var out []*T
	for _, t := range s.threads {
		if t.done {
			continue
		}
		if t.blocked != nil && !t.blocked() {
			continue
		}
		out = append(out, t)
	}
	return out
}

// yield hands control back to the scheduler; cond, if non-nil, blocks
// the thread until cond() is true. If the run ends while parked (a
// deadlock elsewhere), the thread unwinds via the killed panic.
func (s *Scheduler) yield(t *T, cond func() bool) {
	t.blocked = cond
	t.pause <- struct{}{}
	select {
	case <-t.resume:
	case <-t.kill:
		panic(killed{})
	}
}

// Counter is a monotonic counter with the library's semantics, realized
// on the scheduler: Increment is atomic (a virtual thread is never
// preempted inside it), and Check blocks the virtual thread until the
// value reaches the level.
type Counter struct {
	value uint64
}

// Increment adds amount (a single scheduler step; waiters become
// runnable immediately).
func (c *Counter) Increment(t *T, amount uint64) {
	c.value += amount
	t.Yield() // make the increment a visible scheduling point
}

// Check blocks the calling virtual thread until value >= level.
func (c *Counter) Check(t *T, level uint64) {
	if c.value >= level {
		t.Yield()
		return
	}
	t.s.yield(t, func() bool { return c.value >= level })
}

// Mutex is a scheduler-visible lock.
type Mutex struct {
	held bool
}

// Lock blocks the virtual thread until the mutex is free, then takes it.
func (m *Mutex) Lock(t *T) {
	if !m.held {
		m.held = true
		t.Yield()
		return
	}
	t.s.yield(t, func() bool { return !m.held })
	if m.held {
		panic("sched: mutex handed to a thread while held")
	}
	m.held = true
}

// Unlock releases the mutex. It panics if not held.
func (m *Mutex) Unlock(t *T) {
	if !m.held {
		panic("sched: Unlock of unheld mutex")
	}
	m.held = false
	t.Yield()
}

// RunProgram runs an explore.Program under the seed's schedule: each
// thread is a virtual thread with a scheduling point at every op, on
// this package's Counter and Mutex. It returns the final variables,
// which explore.Render turns into the explorer's outcome key, and the
// run's Outcome. It panics on a program that uses a semaphore, which
// only the explorer models.
func RunProgram(seed uint64, p explore.Program) ([]int64, Outcome) {
	vars, nc, nl, ns := p.Start()
	if ns > 0 {
		panic("sched: semaphores are explorer-only")
	}
	counters := make([]Counter, nc)
	mutexes := make([]Mutex, nl)
	bodies := make([]func(*T), len(p.Threads))
	for i, ops := range p.Threads {
		bodies[i] = func(t *T) {
			var reg int64
			for _, op := range ops {
				switch op.Kind {
				case explore.OpInc:
					counters[op.Target].Increment(t, uint64(op.A))
				case explore.OpCheck:
					counters[op.Target].Check(t, uint64(op.A))
				case explore.OpLock:
					mutexes[op.Target].Lock(t)
				case explore.OpUnlock:
					mutexes[op.Target].Unlock(t)
				default:
					if v, toVar := op.Eval(vars[op.Target], reg); toVar {
						vars[op.Target] = v
					} else {
						reg = v
					}
					t.Yield()
				}
			}
		}
	}
	return vars, Run(seed, bodies...)
}

// String renders an outcome compactly.
func (o Outcome) String() string {
	if o.Deadlock {
		return fmt.Sprintf("deadlock(blocked=%v, trace=%v)", o.BlockedThreads, o.Trace)
	}
	return fmt.Sprintf("ok(trace=%v)", o.Trace)
}
