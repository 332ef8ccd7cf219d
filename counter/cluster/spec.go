package cluster

import cwait "monotonic/counter/wait"

// Server-side predicate waits through the cluster. A Cluster is a
// wait.SpecHost: when every counter a predicate watches hashes to the
// SAME live member, the whole predicate is shipped there as one wire v3
// OpWaitFor registration — one parked entry on that node, zero client
// frames per increment that cannot flip it. Counters that shard across
// members refuse the route and the predicate engine falls back to
// per-counter sentinels, each of which already rides failover on its
// own.
//
// A routed predicate survives failover too. The registration is one
// entry in the home's pooled client, armed under the cluster lock like
// Counter.ArmHook. Retiring the home closes that pool, whose Close
// fires the registration's fire(false). The predicate engine takes that
// as a kick and asks this Cluster again, and the re-ask routes to the
// name's new home. Monotonicity makes the re-send idempotent, and the
// truth the successor accumulates (every writer replays its ledger
// there) is the same monotone truth, so a wake from the new home is as
// authoritative as one from the old. Only when the counters no longer
// colocate (or the cluster is closed, or every member is dead) is the
// re-ask refused, and the predicate engine degrades to sentinels.

// SpecHost nominates the owning Cluster to host multi-counter
// predicates over this counter; see Cluster.ArmSpec.
func (ctr *Counter) SpecHost() cwait.SpecHost { return ctr.cl }

var _ cwait.SpecHost = (*Cluster)(nil)

// ArmSpec registers spec for server-side evaluation on the member
// hosting all of its counters, making the Cluster a wait.SpecHost. It
// refuses (ok = false) when the counters do not colocate on one live
// member, or the home's client refuses — the caller then evaluates
// client-side over per-counter sentinels. The route and the
// registration happen under one hold of c.mu, and failNode re-routes
// under c.mu before it closes the dead pool, so the close finds the
// entry and fires it, and the predicate engine's re-ask lands on the
// successor. The pool slot is the first counter's, so re-asks after a
// failover stay on one session per spec.
//
// ArmSpec and the returned cancel are called under the predicate
// engine's lock; neither blocks on the network.
func (c *Cluster) ArmSpec(spec cwait.Spec, fire func(satisfied bool)) (cancel func() bool, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(spec.Counters) == 0 {
		return nil, false
	}
	var home *node
	var first *Counter
	for _, ci := range spec.Counters {
		ctr, ok := ci.(*Counter)
		if !ok || ctr.cl != c {
			return nil, false
		}
		n := c.routeLocked(ctr.hash)
		if n == nil {
			return nil, false
		}
		if home == nil {
			home, first = n, ctr
		} else if n != home {
			return nil, false
		}
	}
	return home.clients[first.hash%uint64(len(home.clients))].ArmSpec(spec, fire)
}
