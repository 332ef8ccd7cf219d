package cluster

import (
	"sync"

	"monotonic/counter/remote"
	cwait "monotonic/counter/wait"
)

// Server-side predicate waits through the cluster. A Cluster is a
// wait.SpecHost: when every counter a predicate watches hashes to the
// SAME live member, the whole predicate is shipped there as one wire v3
// OpWaitFor registration — one parked entry on that node, zero client
// frames per increment that cannot flip it. Counters that shard across
// members refuse the route and the predicate engine falls back to
// per-counter sentinels, each of which already rides failover on its
// own.
//
// A routed predicate survives failover too: when its home is retired,
// the underlying client's fire(false) lands in a supervisor that
// re-resolves the placement and re-arms the same spec against the ring
// successor — monotonicity makes the re-send idempotent, and the truth
// the successor accumulates (every writer replays its ledger there) is
// the same monotone truth, so a wake from the new home is as
// authoritative as one from the old. Only when the counters no longer
// colocate (or the cluster is closed, or every member is dead) does the
// supervisor pass the fire(false) through and let the predicate engine
// degrade to sentinels.

// SpecHost nominates the owning Cluster to host multi-counter
// predicates over this counter; see Cluster.ArmSpec.
func (ctr *Counter) SpecHost() cwait.SpecHost { return ctr.cl }

var _ cwait.SpecHost = (*Cluster)(nil)

// specClient resolves the pooled client of the single live member
// hosting every counter in spec — nil when the counters split across
// members, belong to another Cluster, or no route exists. The pool slot
// is the first counter's, so re-arms after a failover stay on one
// session per spec.
func (c *Cluster) specClient(spec cwait.Spec) *remote.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(spec.Counters) == 0 {
		return nil
	}
	var home *node
	var first *Counter
	for _, ci := range spec.Counters {
		ctr, ok := ci.(*Counter)
		if !ok || ctr.cl != c {
			return nil
		}
		n := c.routeLocked(ctr.hash)
		if n == nil {
			return nil
		}
		if home == nil {
			home, first = n, ctr
		} else if n != home {
			return nil
		}
	}
	return home.clients[first.hash%uint64(len(home.clients))]
}

// ArmSpec registers spec for server-side evaluation on the member
// hosting all of its counters, making the Cluster a wait.SpecHost. It
// refuses (ok = false) when the counters do not colocate on one live
// member — the caller then evaluates client-side over per-counter
// sentinels. An accepted registration is supervised across failovers:
// retiring the home re-routes it to the successor transparently.
//
// ArmSpec and the returned cancel are called under the predicate
// engine's lock; neither blocks on the network.
func (c *Cluster) ArmSpec(spec cwait.Spec, fire func(satisfied bool)) (cancel func() bool, ok bool) {
	s := &specSupervisor{c: c, spec: spec, fire: fire}
	if !s.arm() {
		return nil, false
	}
	return s.cancel, true
}

// specSupervisor owns one routed predicate registration across its
// lifetime of homes. done latches on cancel or on the first forwarded
// fire; inner is the current home client's cancel, nil while a re-route
// is in flight.
type specSupervisor struct {
	c    *Cluster
	spec cwait.Spec
	fire func(satisfied bool)

	mu    sync.Mutex
	inner func() bool
	done  bool
}

// arm routes the spec and registers it with the home's client,
// reporting false when no single live member hosts every counter (or
// the home refuses — closed pool, feature lost).
func (s *specSupervisor) arm() bool {
	cl := s.c.specClient(s.spec)
	if cl == nil {
		return false
	}
	inner, ok := cl.ArmSpec(s.spec, s.onFire)
	if !ok {
		return false
	}
	s.mu.Lock()
	if s.done {
		// A cancel (or a forwarded fire) won while we were re-arming:
		// unwind the registration we just made.
		s.mu.Unlock()
		inner()
		return true // done is settled; the caller must not degrade
	}
	s.inner = inner
	s.mu.Unlock()
	return true
}

// onFire receives the current home client's verdicts. Satisfaction is
// forwarded — monotone truth from any home is final. An unsatisfied
// fire means the home is gone (retired member, closed pool): re-route
// before letting the predicate engine degrade.
func (s *specSupervisor) onFire(satisfied bool) {
	if satisfied {
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			return
		}
		s.done = true
		s.inner = nil
		s.mu.Unlock()
		s.fire(true)
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.inner = nil // the old home's registration died with its client
	s.mu.Unlock()
	if s.arm() {
		return // re-routed to the successor (or settled by a racing cancel)
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.mu.Unlock()
	s.fire(false)
}

// cancel tears the registration down, reporting whether the fire was
// prevented. done latches first, so a racing onFire — even one whose
// inner wake is already in flight — is swallowed here and never reaches
// the predicate engine.
func (s *specSupervisor) cancel() bool {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return false
	}
	s.done = true
	inner := s.inner
	s.inner = nil
	s.mu.Unlock()
	if inner != nil {
		inner()
	}
	return true
}
