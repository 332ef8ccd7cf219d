// Package explore is an exhaustive interleaving explorer for small
// multithreaded programs over shared state: it enumerates every schedule
// of a program written in a tiny abstract operation language (variable
// reads/writes, monotonic-counter Increment/Check, lock Lock/Unlock,
// semaphore P/V) and reports the set of distinct final outcomes and
// whether any schedule deadlocks.
//
// It exists to *prove*, rather than merely observe, the paper's section 6
// claims on the programs given there:
//
//   - the lock program {x=x+1} || {x=x*2} has two outcomes (7 and 8);
//   - the counter program Check(0);x=x+1;Inc(1) || Check(1);x=x*2;Inc(1)
//     has exactly one outcome (8) and no deadlocks on any schedule;
//   - the unguarded counter program (both threads Check(0)) is
//     nondeterministic, and with non-atomic read/modify/write it also
//     exhibits lost updates;
//   - a counter program whose sequential execution deadlocks can deadlock
//     multithreaded, while one whose sequential execution succeeds never
//     deadlocks (checked per program by exploring all schedules).
//
// States are memoized, so exploration cost is the size of the state
// graph, not the number of schedules.
//
// Program is the one form in which these programs are written: the other
// two section 6 checkers interpret it, internal/sched under seeded
// schedules (sched.RunProgram) and internal/detect on goroutines under
// vector clocks (detect.Run).
package explore

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// OpKind enumerates the abstract operations.
type OpKind int

// The operation kinds.
const (
	OpModify OpKind = iota // atomic read-modify-write of a variable
	OpRead                 // load variable into the thread's register
	OpWrite                // store f(register) to a variable
	OpFold                 // var = var*A + register (order-sensitive accumulation)
	OpInc                  // counter Increment(A)
	OpCheck                // counter Check(A): enabled iff value >= A
	OpLock                 // acquire lock: enabled iff free
	OpUnlock               // release lock
	OpSemP                 // semaphore P: enabled iff value > 0
	OpSemV                 // semaphore V
)

// ArithKind enumerates the arithmetic applied by OpModify / OpWrite.
type ArithKind int

// The arithmetic kinds: f(v) = v+K, v*K, or K.
const (
	Add ArithKind = iota
	Mul
	Set
)

func (a ArithKind) apply(v, k int64) int64 {
	switch a {
	case Add:
		return v + k
	case Mul:
		return v * k
	default:
		return k
	}
}

// Op is one abstract operation. Target indexes the variable, counter,
// lock, or semaphore the kind addresses; A is the amount, level, or
// arithmetic operand; F is the arithmetic for OpModify and OpWrite.
type Op struct {
	Kind   OpKind
	Target int
	F      ArithKind
	A      int64
}

// Eval is the effect of a data op (OpModify, OpRead, OpWrite, OpFold)
// run by a thread whose register holds reg, when the op's variable
// holds cur: the value it produces, and whether that value goes to the
// variable (toVar) or to the register. OpWrite ignores cur.
func (op Op) Eval(cur, reg int64) (val int64, toVar bool) {
	switch op.Kind {
	case OpRead:
		return cur, false
	case OpWrite:
		return op.F.apply(reg, op.A), true
	case OpFold:
		return cur*op.A + reg, true
	default:
		return op.F.apply(cur, op.A), true
	}
}

// Convenience constructors, so programs read like the paper's listings.

// Modify returns an atomic x = f(x) operation.
func Modify(v int, f ArithKind, k int64) Op { return Op{Kind: OpModify, Target: v, F: f, A: k} }

// Read returns reg = x.
func Read(v int) Op { return Op{Kind: OpRead, Target: v} }

// Write returns x = f(reg).
func Write(v int, f ArithKind, k int64) Op { return Op{Kind: OpWrite, Target: v, F: f, A: k} }

// Fold returns x = x*base + reg, an order-sensitive accumulation that
// makes the history of values a thread observed visible in the final
// state (useful to expose races the final data values would mask).
func Fold(v int, base int64) Op { return Op{Kind: OpFold, Target: v, A: base} }

// Inc returns counter.Increment(amount).
func Inc(c int, amount int64) Op { return Op{Kind: OpInc, Target: c, A: amount} }

// Check returns counter.Check(level).
func Check(c int, level int64) Op { return Op{Kind: OpCheck, Target: c, A: level} }

// Lock returns lock.Lock().
func Lock(l int) Op { return Op{Kind: OpLock, Target: l} }

// Unlock returns lock.Unlock().
func Unlock(l int) Op { return Op{Kind: OpUnlock, Target: l} }

// P returns semaphore.P().
func P(s int) Op { return Op{Kind: OpSemP, Target: s} }

// V returns semaphore.V().
func V(s int) Op { return Op{Kind: OpSemV, Target: s} }

// Program is a set of threads over shared variables, counters, locks, and
// semaphores. Sizes are inferred from the operations; InitVars and
// InitSems may be shorter than the inferred counts (missing entries are
// zero).
type Program struct {
	Threads  [][]Op
	InitVars []int64
	InitSems []int
}

// state is one node of the interleaving graph.
type state struct {
	pcs      []int
	regs     []int64
	vars     []int64
	counters []uint64
	locks    []bool
	sems     []int
}

func (s *state) clone() *state {
	return &state{
		pcs:      append([]int(nil), s.pcs...),
		regs:     append([]int64(nil), s.regs...),
		vars:     append([]int64(nil), s.vars...),
		counters: append([]uint64(nil), s.counters...),
		locks:    append([]bool(nil), s.locks...),
		sems:     append([]int(nil), s.sems...),
	}
}

func (s *state) key() string {
	var b strings.Builder
	for _, p := range s.pcs {
		b.WriteString(strconv.Itoa(p))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, r := range s.regs {
		b.WriteString(strconv.FormatInt(r, 10))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, v := range s.vars {
		b.WriteString(strconv.FormatInt(v, 10))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, c := range s.counters {
		b.WriteString(strconv.FormatUint(c, 10))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, l := range s.locks {
		if l {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte('|')
	for _, v := range s.sems {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// Result summarizes an exhaustive exploration.
type Result struct {
	// Outcomes maps the canonical rendering of each reachable final
	// variable assignment to its values.
	Outcomes map[string][]int64
	// Witnesses maps each outcome to one schedule (thread index per
	// step) that produces it. Because memoization prunes revisited
	// states, a witness is the prefix actually walked when the outcome
	// was first reached; it is always a valid complete schedule for
	// that outcome.
	Witnesses map[string][]int
	// Deadlock reports whether any schedule reaches a state where no
	// thread can step but some thread is unfinished.
	Deadlock bool
	// DeadlockTrace is one schedule (thread index per step) reaching a
	// deadlock, when Deadlock is true.
	DeadlockTrace []int
	// States is the number of distinct states visited.
	States int
}

// OutcomeList returns the distinct outcomes sorted by rendering, for
// stable reporting.
func (r Result) OutcomeList() []string {
	out := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ErrTooManyStates is returned when exploration exceeds the state limit.
var ErrTooManyStates = errors.New("explore: state limit exceeded")

// Start returns what every run of p starts from: its variables at their
// initial values (InitVars, padded with zeros to every variable an op
// addresses), and how many counters, locks and semaphores p addresses.
// Counters start at zero and locks free; InitSems holds the semaphores'
// initial values.
func (p *Program) Start() (vars []int64, counters, locks, sems int) {
	need := func(cur *int, idx int) {
		if idx+1 > *cur {
			*cur = idx + 1
		}
	}
	nv := len(p.InitVars)
	sems = len(p.InitSems)
	for _, th := range p.Threads {
		for _, op := range th {
			switch op.Kind {
			case OpModify, OpRead, OpWrite, OpFold:
				need(&nv, op.Target)
			case OpInc, OpCheck:
				need(&counters, op.Target)
			case OpLock, OpUnlock:
				need(&locks, op.Target)
			case OpSemP, OpSemV:
				need(&sems, op.Target)
			}
		}
	}
	vars = make([]int64, nv)
	copy(vars, p.InitVars)
	return vars, counters, locks, sems
}

// start is p's start state, from which Explore, Replay and
// SequentialOutcome all begin.
func (p *Program) start() *state {
	vars, nc, nl, ns := p.Start()
	s := &state{
		pcs:      make([]int, len(p.Threads)),
		regs:     make([]int64, len(p.Threads)),
		vars:     vars,
		counters: make([]uint64, nc),
		locks:    make([]bool, nl),
		sems:     make([]int, ns),
	}
	copy(s.sems, p.InitSems)
	return s
}

// enabled reports whether thread t can take its next step in s.
func (p *Program) enabled(s *state, t int) bool {
	pc := s.pcs[t]
	if pc >= len(p.Threads[t]) {
		return false
	}
	op := p.Threads[t][pc]
	switch op.Kind {
	case OpCheck:
		return s.counters[op.Target] >= uint64(op.A)
	case OpLock:
		return !s.locks[op.Target]
	case OpSemP:
		return s.sems[op.Target] > 0
	default:
		return true
	}
}

// step applies thread t's next op to a copy of s.
func (p *Program) step(s *state, t int) *state {
	n := s.clone()
	op := p.Threads[t][n.pcs[t]]
	switch op.Kind {
	case OpModify, OpRead, OpWrite, OpFold:
		if v, toVar := op.Eval(n.vars[op.Target], n.regs[t]); toVar {
			n.vars[op.Target] = v
		} else {
			n.regs[t] = v
		}
	case OpInc:
		n.counters[op.Target] += uint64(op.A)
	case OpCheck:
		// enabledness already verified; no state change
	case OpLock:
		n.locks[op.Target] = true
	case OpUnlock:
		n.locks[op.Target] = false
	case OpSemP:
		n.sems[op.Target]--
	case OpSemV:
		n.sems[op.Target]++
	}
	n.pcs[t]++
	return n
}

// Explore enumerates every schedule of p, with memoization, up to
// maxStates distinct states (0 means a default of 1<<20).
func Explore(p Program, maxStates int) (Result, error) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	res := Result{
		Outcomes:  make(map[string][]int64),
		Witnesses: make(map[string][]int),
	}
	visited := make(map[string]bool)
	var trace []int
	var limitErr error

	var dfs func(s *state)
	dfs = func(s *state) {
		if limitErr != nil {
			return
		}
		k := s.key()
		if visited[k] {
			return
		}
		visited[k] = true
		res.States++
		if res.States > maxStates {
			limitErr = ErrTooManyStates
			return
		}
		anyEnabled := false
		allDone := true
		for t := range p.Threads {
			if s.pcs[t] < len(p.Threads[t]) {
				allDone = false
			}
			if p.enabled(s, t) {
				anyEnabled = true
			}
		}
		if allDone {
			key := Render(s.vars)
			if _, seen := res.Outcomes[key]; !seen {
				res.Outcomes[key] = append([]int64(nil), s.vars...)
				res.Witnesses[key] = append([]int(nil), trace...)
			}
			return
		}
		if !anyEnabled {
			if !res.Deadlock {
				res.Deadlock = true
				res.DeadlockTrace = append([]int(nil), trace...)
			}
			return
		}
		for t := range p.Threads {
			if p.enabled(s, t) {
				trace = append(trace, t)
				dfs(p.step(s, t))
				trace = trace[:len(trace)-1]
			}
		}
	}
	dfs(p.start())
	if limitErr != nil {
		return res, limitErr
	}
	return res, nil
}

// Replay executes p under a fixed schedule (thread index per step) and
// returns the final variables. ok is false if the schedule is invalid —
// it names a finished/blocked thread or leaves the program unfinished.
func Replay(p Program, schedule []int) (vars []int64, ok bool) {
	s := p.start()
	for _, t := range schedule {
		if t < 0 || t >= len(p.Threads) || !p.enabled(s, t) {
			return nil, false
		}
		s = p.step(s, t)
	}
	for t := range p.Threads {
		if s.pcs[t] < len(p.Threads[t]) {
			return nil, false
		}
	}
	return s.vars, true
}

// Render is the outcome key of a final variable assignment, as in
// Result.Outcomes: "x0=8 x1=3".
func Render(vars []int64) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("x%d=%d", i, v)
	}
	return strings.Join(parts, " ")
}

// MustExplore is Explore with a panic on error, for tests and examples
// whose programs are known to be small.
func MustExplore(p Program) Result {
	res, err := Explore(p, 0)
	if err != nil {
		panic(err)
	}
	return res
}
