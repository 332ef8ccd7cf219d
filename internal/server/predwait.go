package server

import (
	"fmt"

	"monotonic/internal/predicate"
	"monotonic/internal/wire"
)

// Server-side predicate waits: the wire v3 OpWaitFor frame mounts the
// internal/predicate sentinel engine directly on the hosted counters.
// One frame parks ONE entry per session predicate — a predicate.Cond
// that the entry is armed on as its core.Firer (no goroutine, no
// closure), whose sentinels sit at pigeonhole frontiers on the
// counters' own waitlists, exactly as in-process waits park. A k-of-n
// quorum that used to cost the client one wire-level wait per watched
// counter per frontier move now costs one frame out, one wake back, and
// zero client round trips for every increment that cannot flip the
// predicate — the server's sentinels absorb them. The entry sits in
// conn.waits beside the OpCheck waits and shares their wake, cancel and
// teardown paths (server.go).

// handleWaitFor executes one OpWaitFor frame: build the predicate from
// the frame's fields and validate it before any name is hosted, then
// arm the wait entry on a Cond over the hosted counters. An
// already-satisfied predicate wakes immediately without parking
// anything.
func (c *conn) handleWaitFor(f *wire.Frame) error {
	if c.version < 3 {
		return fmt.Errorf("server: waitfor from protocol v%d client", c.version)
	}
	n := len(f.Watch)
	pred := predicate.Pred{Kind: predicate.Kind(f.Pred), K: f.K, Target: f.Target}
	if pred.Kind == predicate.KindThreshold {
		pred.Levels = make([]uint64, n)
		for i := range f.Watch {
			pred.Levels[i] = f.Watch[i].Level
		}
	}
	if err := pred.Validate(n); err != nil {
		return fmt.Errorf("server: waitfor: %w", err)
	}
	cs := make([]predicate.Counter, n)
	for i := range f.Watch {
		h, err := c.hosted(f.Watch[i].Name)
		if err != nil {
			return err
		}
		cs[i] = h.c
	}

	cond := predicate.NewCond(pred, cs...)
	w, err := c.publish(f.ID, 0, cond)
	if err != nil {
		return err
	}
	// The Cond fires w under its lock on the satisfying goroutine; wake
	// takes only leaf locks.
	c.settle(w, cond.Arm(w))
	return nil
}

// PredicateWaits returns the number of predicate waits currently parked
// across all connections — the "one entry per session predicate" bound
// E27 and the countertest battery assert at run time.
func (s *Server) PredicateWaits() int {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	n := 0
	for _, c := range conns {
		c.waitMu.Lock()
		for _, w := range c.waits {
			if w.cond != nil {
				n++
			}
		}
		c.waitMu.Unlock()
	}
	return n
}
