package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"monotonic/counter"
	"monotonic/counter/remote"
	"monotonic/internal/core"
)

// Counter is a named monotonic counter hosted by whichever cluster node
// its name hashes to, obtained from Cluster.Counter. It implements the
// same counter.Interface as the in-process and single-node remote
// types; code written against the interface cannot tell where the
// counter lives. Counters with the same name through any Cluster over
// the same member list are one counter.
//
// On top of the remote semantics, a cluster counter rides over node
// death: a blocked wait whose home node is retired is transparently
// re-issued against the name's new home (monotonicity makes the
// re-issue safe — it cannot observe a smaller value), an armed hook
// is kicked so its predicate re-arms there, and the increments this
// Cluster contributed are replayed there from its ledger.
type Counter struct {
	cl   *Cluster
	name string
	hash uint64

	// route caches the remote counter hosting the name, nil until the
	// first routing and again once failNode moves the name off a dead
	// member or an increment finds its client closed (see
	// Cluster.homeLocked). It is filled under cl.mu; TryIncrement and
	// Watermark load it without the lock.
	route atomic.Pointer[remote.Counter]

	// known is the cluster-client-local satisfied watermark, the same
	// monotone lower bound the single-node client keeps. Across a
	// failover it remains a bound on the reconstructed value once every
	// contributing Cluster has replayed its ledger (fail-stop members;
	// a closed Cluster's unreplayed tail died unobserved with it).
	known atomic.Uint64

	immediate atomic.Uint64 // checks satisfied by the cluster-local watermark
}

// The cluster counter is interchangeable with the in-process and
// single-node remote ones.
var (
	_ counter.Interface     = (*Counter)(nil)
	_ counter.StatsProvider = (*Counter)(nil)
	_ core.Sentineler       = (*Counter)(nil)
)

// noteSatisfied raises the satisfied watermark to level (never lowers
// it — concurrent observations may arrive out of order).
func (ctr *Counter) noteSatisfied(level uint64) {
	for {
		cur := ctr.known.Load()
		if level <= cur || ctr.known.CompareAndSwap(cur, level) {
			return
		}
	}
}

// Increment atomically increases the counter's value by amount, waking
// every waiter — in any process, against any node — whose level the new
// value satisfies. The amount enters the ledger of the home's pooled
// client and is pipelined to the home node. If that node is being
// retired concurrently, the amount either entered the ledger first, and
// the failover replay delivers it to the successor, or found the client
// closed and goes to the successor directly: exactly once either way.
func (ctr *Counter) Increment(amount uint64) {
	if err := ctr.TryIncrement(amount); err != nil {
		panic(err.Error())
	}
}

// TryIncrement is Increment reporting errors instead of panicking:
// remote.ErrClosed on a closed Cluster, ErrNoNodes once every member is
// dead, or the latched server rejection (overflow) relayed by the home
// client. On a routed counter it takes only the home client's lock.
func (ctr *Counter) TryIncrement(amount uint64) error {
	for {
		rc := ctr.route.Load()
		if rc == nil {
			var err error
			if rc, err = ctr.cl.homeCounter(ctr); err != nil {
				return err
			}
		}
		err := rc.TryIncrement(amount)
		if !errors.Is(err, remote.ErrClosed) {
			return err
		}
		// The amount is in no ledger: failNode closed the home and cleared
		// the route, or the Cluster closed, which routing reports. The
		// swap keeps a route another increment already renewed.
		ctr.route.CompareAndSwap(rc, nil)
	}
}

// Name reports the name the counter was opened under — the key both
// placement (Cluster.NodeFor) and identity across clients derive from.
func (ctr *Counter) Name() string { return ctr.name }

// Contribution reports this Cluster's ledger entry for the counter: the
// total it has contributed since the last Reset, as the home's pooled
// client keeps it (remote.Counter.Contribution). The cluster-wide value
// is the sum of every contributing Cluster's entry. It may read low
// while a failover replays, and is exact once Live drops the dead
// member; zero on a closed Cluster or with every member dead.
func (ctr *Counter) Contribution() uint64 {
	rc, err := ctr.cl.homeCounter(ctr)
	if err != nil {
		return 0
	}
	return rc.Contribution()
}

// Check suspends the caller until the value is at least level, riding
// over reconnects and node failovers. It panics only if the Cluster is
// closed (or the last member dies) while waiting — the cluster analogue
// of the single-node client's ErrClosed panic.
func (ctr *Counter) Check(level uint64) {
	if err := ctr.CheckContext(context.Background(), level); err != nil {
		panic(err.Error())
	}
}

// CheckContext is Check with cancellation: nil once the value reaches
// level, ctx.Err() if the context wins, with satisfied-beats-cancelled
// resolved by the home server. If the home node is retired mid-wait the
// wait is re-issued against the name's new home: the value is monotone,
// so re-asking can never observe less, and a wait that was entitled
// before the failover becomes entitled again once the contributing
// ledgers land. Returns remote.ErrClosed if the Cluster is closed while
// waiting, ErrNoNodes once every member is dead.
func (ctr *Counter) CheckContext(ctx context.Context, level uint64) error {
	if level <= ctr.known.Load() {
		ctr.immediate.Add(1)
		return nil
	}
	for {
		rc, err := ctr.cl.homeCounter(ctr)
		if err != nil {
			return err
		}
		switch err := rc.CheckContext(ctx, level); {
		case err == nil:
			ctr.noteSatisfied(level)
			return nil
		case errors.Is(err, remote.ErrClosed):
			// The home's client closed under the wait — a failover (or
			// Cluster close; the next route answers which). Re-route.
		default:
			return err // the context won
		}
	}
}

// WaitTimeout is Check bounded by a timeout, reporting whether the
// level was reached; a satisfied level beats an expired deadline, and
// the deadline spans failovers (a retired home does not restart the
// clock). Past the deadline, a wait on a home that stays unreachable
// returns within the failure budget: retiring the home closes its pool,
// which resolves the wait, and the new home answers the re-asked one.
// A home whose links keep connecting and then dying bounds it by
// nothing (see remote.Counter.WaitTimeout). If the Cluster closes under
// the wait, or its last member dies, WaitTimeout panics with
// remote.ErrClosed or ErrNoNodes.
func (ctr *Counter) WaitTimeout(level uint64, d time.Duration) bool {
	if level <= ctr.known.Load() {
		ctr.immediate.Add(1)
		return true
	}
	return core.WaitTimeout(ctr, level, d)
}

// ArmHook arms the caller-owned hook h to fire when the value reaches
// level, making cluster counters watchable by counter/wait's predicate
// conditions alongside in-process and single-node remote ones. It is
// the home node's remote ArmHook, with no wrapper: the home's client
// raises its own watermark before the hook runs, and Watermark folds
// that in. Retiring the home closes its pool, which fires the hook once
// as a re-evaluation kick, so the predicate re-arms on the name's new
// home. On a closed Cluster, or with every member dead, the hook
// is armed but never fires.
func (ctr *Counter) ArmHook(level uint64, h *core.Hook) bool {
	if level <= ctr.known.Load() {
		return false
	}
	// Route and arm under one hold of c.mu: failNode re-routes under c.mu
	// before it closes the dead pool, so the close finds the entry to kick.
	c := ctr.cl
	c.mu.Lock()
	defer c.mu.Unlock()
	var rc *remote.Counter
	if !c.closed {
		rc = c.homeLocked(ctr)
	}
	if rc == nil {
		h.ArmedBy(core.Stranded)
		return true
	}
	return rc.ArmHook(level, h)
}

// Watermark returns the satisfied watermark this Cluster has observed
// for the counter — a monotone lower bound on the cluster-wide value,
// which is the view the predicate layer (counter/wait) needs. It first
// raises the watermark to the one the home node's client holds (a CAS
// max), so a level a hook's fire or a wake proved on the home is seen
// here. It never touches the network and takes no lock.
func (ctr *Counter) Watermark() uint64 {
	if rc := ctr.route.Load(); rc != nil {
		ctr.noteSatisfied(rc.Watermark())
	}
	return ctr.known.Load()
}

// Reset sets the value back to zero for reuse between phases and, as
// the home's remote Reset, zeroes this Cluster's ledger entry, so a
// later failover does not resurrect pre-reset contributions. As
// everywhere else, Reset must not run concurrently with any other
// operation on the counter and panics if waiters are suspended on it.
// In a cluster the exclusivity is cluster-wide and extends to the
// ledgers: every OTHER Cluster that has written the name still holds
// its pre-reset contribution, which a failover would faithfully replay
// — so phase reuse across failures is exact only when each name has a
// single writing Cluster per phase (the usual sharded-writer
// deployment), or when writers re-open the name (fresh ledger) after
// the reset.
//
// The watermarks are no more cluster-wide than the ledgers: Reset
// restarts this Cluster's, but another Cluster that saw the value reach
// L before the reset keeps answering Checks at or below L from its own
// watermark, without the wire, although the value is now below L (see
// remote.Counter.Reset, whose client-local watermark behaves the same).
func (ctr *Counter) Reset() {
	rc, err := ctr.cl.homeCounter(ctr)
	if err != nil {
		panic("cluster: reset: " + err.Error())
	}
	rc.Reset() // relays the server's refusal as a panic if waiters are suspended
	// The hosted value is zero again; the watermark must restart with it
	// or stale immediate Checks would lie.
	ctr.known.Store(0)
}

// Stats reports the home node's engine measurements for the counter
// (the shared schema every client session contributes to), folding in
// this Cluster's local fast-path accounting: checks satisfied by the
// cluster-side watermark never reach a node, so the home undercounts
// them. After a failover the numbers describe the new home, whose
// engine history starts at the replay.
func (ctr *Counter) Stats() counter.Stats {
	rc, err := ctr.cl.homeCounter(ctr)
	if err != nil {
		return counter.Stats{ImmediateChecks: ctr.immediate.Load()}
	}
	s := rc.Stats()
	s.ImmediateChecks += ctr.immediate.Load()
	return s
}
