// Package detect is a dynamic determinacy checker for counter-synchronized
// programs: it verifies the paper's section 6 condition that every pair of
// conflicting operations on a shared variable is separated by a transitive
// chain of counter operations (or other synchronization), using vector
// clocks to track happens-before.
//
// Programs are written against instrumented objects — Var for shared
// variables, Counter for monotonic counters, Mutex for locks — and run on
// instrumented Threads created by Fork/Join. Run executes an
// internal/explore Program on them, so this checker, the explorer and
// internal/sched all check the same programs. Every unguarded pair of
// conflicting accesses is recorded as a Violation. A program with no
// violations satisfies the section 6 condition; if it synchronizes only
// through counters, its results are therefore deterministic.
//
// The paper cites from Thornley's thesis [21] that the condition holding
// on one execution implies it holds on all. This checker's verdict on one
// run carries to every run only when the increments that satisfy each
// Check are ordered among themselves: one incrementing thread per
// counter, or incrementers chained by Checks, as in ordered accumulation.
// A Check joins the clocks of the increments that reached its level in
// this run's order, so where two unordered threads increment one counter,
// which of them satisfies a Check is a schedule choice. Two threads
// incrementing one counter while a third Checks 1, then reads a variable
// one of them wrote, was flagged in 85 of 5000 runs at GOMAXPROCS=2 and
// in none of 5000 at 1: only the runs where the other increment came
// first show the race.
//
// Note the distinction the section 6 examples draw: a lock-guarded program
// can be violation-free yet still nondeterministic, because locks order
// accesses without fixing *which* order; counters fix the order itself.
// This package checks the guard condition; internal/explore proves the
// determinacy half by exhaustive interleaving.
package detect

import (
	"fmt"
	"sort"
	"sync"

	"monotonic/internal/core"
	"monotonic/internal/vclock"
)

// Registry owns the threads and violation log of one checked program run.
type Registry struct {
	mu         sync.Mutex
	nextThread int
	violations []Violation
}

// Violation is one detected pair of conflicting, unordered accesses.
type Violation struct {
	Var    string // variable name
	Kind   string // "write-write", "read-write", or "write-read"
	First  int    // thread id of the earlier-recorded access
	Second int    // thread id of the access that exposed the race
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s race on %s between thread %d and thread %d", v.Kind, v.Var, v.First, v.Second)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Violations returns the violations recorded so far, sorted for stable
// reporting.
func (r *Registry) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Violation(nil), r.violations...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Var != b.Var {
			return a.Var < b.Var
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.First != b.First {
			return a.First < b.First
		}
		return a.Second < b.Second
	})
	return out
}

func (r *Registry) record(v Violation) {
	r.mu.Lock()
	r.violations = append(r.violations, v)
	r.mu.Unlock()
}

// Thread is an instrumented thread. Each Thread must be used by exactly
// one goroutine at a time; Fork and Join transfer the happens-before
// edges of thread creation and termination.
type Thread struct {
	reg *Registry
	id  int
	vc  vclock.VC
}

// Root returns the program's initial thread. Call once per registry.
func (r *Registry) Root() *Thread {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Thread{reg: r, id: r.nextThread}
	r.nextThread++
	t.vc = vclock.New(t.id + 1)
	t.vc.Tick(t.id)
	return t
}

// ID returns the thread's identifier.
func (t *Thread) ID() int { return t.id }

// Fork creates n child threads; each child's clock inherits everything
// the parent has seen (the fork edge).
func (t *Thread) Fork(n int) []*Thread {
	t.reg.mu.Lock()
	children := make([]*Thread, n)
	for i := range children {
		c := &Thread{reg: t.reg, id: t.reg.nextThread}
		t.reg.nextThread++
		c.vc = t.vc.Clone()
		c.vc.Join(vclock.New(c.id + 1)) // ensure capacity
		c.vc.Tick(c.id)
		children[i] = c
	}
	t.reg.mu.Unlock()
	t.vc.Tick(t.id)
	return children
}

// Join absorbs terminated children: everything each child saw, the parent
// now sees (the join edge). The children must not be used afterwards.
func (t *Thread) Join(children ...*Thread) {
	for _, c := range children {
		t.vc.Join(c.vc)
	}
	t.vc.Tick(t.id)
}

// Go runs each body on its own goroutine with a freshly forked Thread and
// joins them all before returning — the `multithreaded` block of the
// paper's notation, instrumented.
func (t *Thread) Go(bodies ...func(th *Thread)) {
	children := t.Fork(len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body func(th *Thread)) {
			defer wg.Done()
			body(children[i])
		}(i, body)
	}
	wg.Wait()
	t.Join(children...)
}

// access is one recorded variable access.
type access struct {
	vc     vclock.VC
	thread int
}

// Var is an instrumented shared variable of any type.
type Var[T any] struct {
	reg   *Registry
	name  string
	mu    sync.Mutex
	value T
	write access            // most recent write
	reads map[int]vclock.VC // most recent read per thread
}

// NewVar returns an instrumented variable with the given debug name and
// initial value. The initial value counts as a write by the creating
// thread.
func NewVar[T any](t *Thread, name string, initial T) *Var[T] {
	v := &Var[T]{reg: t.reg, name: name, value: initial, reads: make(map[int]vclock.VC)}
	v.write = access{vc: t.vc.Clone(), thread: t.id}
	t.vc.Tick(t.id)
	return v
}

// Read returns the value, recording a read-write race if the most recent
// write is concurrent with this read.
func (v *Var[T]) Read(t *Thread) T {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.write.thread != t.id && !v.write.vc.HappensBefore(t.vc) && !v.write.vc.Equal(t.vc) {
		v.reg.record(Violation{Var: v.name, Kind: "write-read", First: v.write.thread, Second: t.id})
	}
	v.reads[t.id] = t.vc.Clone()
	t.vc.Tick(t.id)
	return v.value
}

// Write stores a value, recording a write-write race if the previous
// write is concurrent, and a read-write race for every concurrent
// earlier read.
func (v *Var[T]) Write(t *Thread, value T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.write.thread != t.id && !v.write.vc.HappensBefore(t.vc) && !v.write.vc.Equal(t.vc) {
		v.reg.record(Violation{Var: v.name, Kind: "write-write", First: v.write.thread, Second: t.id})
	}
	for tid, rvc := range v.reads {
		if tid != t.id && !rvc.HappensBefore(t.vc) && !rvc.Equal(t.vc) {
			v.reg.record(Violation{Var: v.name, Kind: "read-write", First: tid, Second: t.id})
		}
	}
	v.value = value
	v.write = access{vc: t.vc.Clone(), thread: t.id}
	// A write that is ordered after all reads supersedes them.
	v.reads = make(map[int]vclock.VC)
	t.vc.Tick(t.id)
}

// Counter is an instrumented monotonic counter: the real blocking
// behaviour of core.Counter, plus happens-before transfer — a Check that
// waited for level L acquires the joined clocks of every Increment up to
// the first that reached L.
type Counter struct {
	core core.Counter
	mu   sync.Mutex
	cum  []uint64    // cumulative value after each increment
	vcs  []vclock.VC // prefix-joined clocks: vcs[i] = join of increments 0..i
}

// NewCounter returns an instrumented counter with value zero.
func NewCounter(t *Thread) *Counter {
	_ = t
	return &Counter{}
}

// Increment adds amount, releasing the calling thread's clock to future
// Checks that this increment (or a later one) satisfies.
func (c *Counter) Increment(t *Thread, amount uint64) {
	c.mu.Lock()
	var cum uint64
	var joined vclock.VC
	if n := len(c.cum); n > 0 {
		cum = c.cum[n-1]
		joined = c.vcs[n-1].Clone()
	} else {
		joined = vclock.New(0)
	}
	cum += amount
	joined.Join(t.vc)
	c.cum = append(c.cum, cum)
	c.vcs = append(c.vcs, joined)
	c.mu.Unlock()
	t.vc.Tick(t.id)
	c.core.Increment(amount)
}

// Check suspends until the counter reaches level, then acquires the
// clocks of the increments it waited for.
func (c *Counter) Check(t *Thread, level uint64) {
	c.core.Check(level)
	if level == 0 {
		t.vc.Tick(t.id)
		return
	}
	c.mu.Lock()
	// First increment whose cumulative value reaches level; it and all
	// earlier increments happen-before this Check's return.
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] >= level })
	if i < len(c.vcs) {
		t.vc.Join(c.vcs[i])
	}
	c.mu.Unlock()
	t.vc.Tick(t.id)
}

// Mutex is an instrumented lock: release-to-acquire edges are recorded,
// so lock-guarded accesses are never flagged as races (even though, as
// section 6 shows, they may still be nondeterministic).
type Mutex struct {
	mu sync.Mutex
	vc vclock.VC // clock released by the last Unlock
}

// Lock acquires the mutex and the clock of the previous holder.
func (m *Mutex) Lock(t *Thread) {
	m.mu.Lock()
	t.vc.Join(m.vc)
	t.vc.Tick(t.id)
}

// Unlock releases the mutex, publishing the holder's clock.
func (m *Mutex) Unlock(t *Thread) {
	m.vc = t.vc.Clone()
	t.vc.Tick(t.id)
	m.mu.Unlock()
}
