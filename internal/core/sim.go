package core

// Sim drives the reference counter's waiting-list machinery one step at a
// time, with simulated threads instead of goroutines. It exists to
// reproduce the paper's Figure 2 exactly: each operation in the figure
// ((a) construction through (g) a thread resuming) maps to one Sim call,
// and Snapshot exposes the resulting structure deterministically.
//
// Sim manipulates the same join/satisfy/drain bookkeeping the concurrent
// Counter uses (via the shared waitlist engine), so the trace it produces
// is the trace of the production data structure, not of a parallel model.
type Sim struct {
	c Counter
}

// NewSim returns a simulator over a fresh counter (Figure 2 state (a)).
func NewSim() *Sim { return new(Sim) }

// Check simulates a thread calling Check(level). It reports whether the
// thread suspended (level > value) or passed straight through.
func (s *Sim) Check(level uint64) bool {
	s.c.wl.mu.Lock()
	defer s.c.wl.mu.Unlock()
	if level <= s.c.value.Load() {
		s.c.wl.stats.immediateChecks++
		return false
	}
	s.c.wl.join(&s.c.index, level, true)
	return true
}

// Increment simulates Increment(amount): the value rises and every node at
// a satisfied level is marked set and moved to the draining record.
// Suspended simulated threads do not resume until Resume is called for
// their level, which is exactly the window in which Figure 2 states (e)
// and (f) are observable. Simulated threads count as condition-variable
// sleepers, so the stats record one broadcast per satisfied level — the
// paper's cost unit — even though no real goroutine is parked.
func (s *Sim) Increment(amount uint64) {
	s.c.wl.mu.Lock()
	defer s.c.wl.mu.Unlock()
	s.c.value.Store(checkedAdd(s.c.value.Load(), amount))
	s.c.wl.stats.increments++
	for n := s.c.index.pop(s.c.value.Load()); n != nil; {
		next := n.next
		n.next = nil            // no wakeBatch walks this chain; sever it here
		s.c.wl.satisfyLocked(n) // bumps SatisfiedLevels, one per node
		s.c.wl.stats.broadcasts.Add(1)
		n = next
	}
}

// Resume simulates one woken thread at the given level finishing its Check
// call: the node's count drops and the thread that drops it to zero
// retires the node from the draining record. It reports whether a thread
// was resumable (a satisfied node with waiters exists at level).
func (s *Sim) Resume(level uint64) bool {
	s.c.wl.mu.Lock()
	defer s.c.wl.mu.Unlock()
	for _, n := range s.c.wl.draining {
		if n != nil && n.level == level && n.count.Load() > 0 {
			s.c.leave(n)
			return true
		}
	}
	return false
}

// Snapshot returns the current structure in Figure 2 form.
func (s *Sim) Snapshot() Snapshot { return s.c.Inspect() }
