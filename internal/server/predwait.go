package server

import (
	"fmt"

	"monotonic/internal/core"
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
// teardown paths (server.go). Once the entry is answered its Cond, if
// it has watched at most maxSpareWidth counters, waits in conn.conds,
// and the connection's next OpWaitFor renews it in place
// (predicate.Cond.Renew): slots, hooks, scratch, levels, counters and
// firer slot all carry over, the renewed Cond makes no done channel
// (only its firer observes it), and the reader decodes the watch list
// into the last one's storage, so only the level nodes are fresh per
// registration. A wider Cond is left to the garbage collector.

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
	pred := predicate.Pred{Kind: f.Pred, K: f.K, Target: f.Target}
	if pred.Kind == predicate.KindThreshold {
		c.levels = c.levels[:0]
		for i := range f.Watch {
			c.levels = append(c.levels, f.Watch[i].Level)
		}
		pred.Levels = c.levels
	}
	if err := pred.Validate(n); err != nil {
		return fmt.Errorf("server: waitfor: %w", err)
	}
	c.watched = c.watched[:0]
	for i := range f.Watch {
		h, err := c.hosted(f.Watch[i].Name)
		if err != nil {
			return err
		}
		c.watched = append(c.watched, h.c)
	}

	cond := c.renew(pred, c.watched)
	w, err := c.publish(f.ID, 0, cond)
	if err != nil {
		return err
	}
	// The Cond fires w under its lock on the satisfying goroutine; wake
	// takes only leaf locks.
	c.settle(w, cond.Arm(w))
	return nil
}

// renew returns a Cond waiting for pred over cs, both of which it
// copies: the last kept Cond renewed in place, or a new one when none
// is kept or the kept one refuses because a sentinel fire of its last
// predicate is still on its way. A refused Cond is left to the garbage
// collector.
func (c *conn) renew(pred predicate.Pred, cs []core.Sentineler) *predicate.Cond {
	var cond *predicate.Cond
	c.waitMu.Lock()
	if n := len(c.conds); n > 0 {
		cond = c.conds[n-1]
		c.conds = c.conds[:n-1]
	}
	c.waitMu.Unlock()
	if cond == nil || !cond.Renew(pred, cs...) {
		cond = predicate.NewCond(pred, cs...)
	}
	return cond
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
