// Package cluster scales the counterd service horizontally: a static
// member list of counterd nodes, rendezvous-hash placement of counter
// names over the live members, and client-side failover that rides over
// a node death without losing or double-applying an increment.
//
// All placement and routing live in the client — a node never proxies
// or even knows about another node's counters, in the spirit of keeping
// work off the synchronizing hot path. A name lives on the live member
// with the highest score mix(hash(name) ^ hash(member)), ties going to
// the lower address (rendezvous, or highest-random-weight, hashing;
// Thaler and Ravishankar, 1998). The score is a pure function of the
// name and the address, so every client derives the same placement
// from the same member set, in any order, without a coordination
// service. Every client of one cluster must run this same rule: a
// client placing names by any other would look for them on other
// members.
//
// # Why monotonicity makes failover cheap
//
// The paper's core invariant — a counter only grows — is exactly what
// makes distributed failover inexpensive:
//
//   - A re-sent Check cannot observe a smaller value, so a blocked wait
//     can simply be re-issued against whatever node now hosts the name.
//     A predicate wait is re-asked the same way: its sentinels, or its
//     one routed registration, fire when the dead node's pool closes,
//     and the predicate engine arms again through the new routing.
//   - Increments commute, so a counter's value is nothing more than the
//     sum of each writer's total contribution — and each cluster client
//     knows its own total per name (its *ledger*), kept by the pooled
//     remote client the name routes to (remote.Counter.Contribution).
//
// When a node dies, its hosted values die with it. The cluster client
// re-routes each of the dead node's names to the live member that
// scores next for it, so the dead node's names spread over all the
// survivors while every other name stays where it was, and replays its
// full ledger for those names there. Every writer of a name does the
// same (they all lost the same node), so the reconstructed value is
// again the sum of all contributions: exactly the increments that were
// issued, each applied once. In-flight increments are not lost or
// double-counted: an increment enters its home client's ledger under
// that client's lock, and the failover reads that ledger only after
// closing the client. So an increment either entered the ledger first,
// and the replay carries it, or found the client closed, entered no
// ledger, and routes to the successor directly.
//
// A node that restarts *quickly* — the TCP reconnect succeeds before
// the client's failure budget is spent — is detected through the boot
// epoch in the handshake (wire.OpWelcome) and treated exactly like a
// death: the fresh instance's counters are zero and the per-session
// resume restores only the unacknowledged tail, so the cluster retires
// the member and replays its full ledger to the successor, and the
// retired instance's state never matters again.
//
// # Scope
//
// Failover is client-local and assumes fail-stop nodes: a node declared
// dead must not serve other writers afterwards, or clients that kept it
// would disagree with clients that failed over. The member list is
// static for the life of the Cluster; a dead member is never re-added.
// See docs/PATTERNS.md, "Scaling to a cluster".
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"monotonic/counter/remote"
	"monotonic/internal/wire"
)

// ErrNoNodes is reported (or panicked, by operations that cannot return
// an error) once every member of the cluster has been declared dead.
var ErrNoNodes = errors.New("cluster: no live nodes")

// Option configures DialCluster.
type Option func(*config)

type config struct {
	poolSize  int
	failAfter int
	remote    []remote.Option // forwarded to every pooled client
}

// WithPoolSize sets how many remote.Client connections the cluster
// holds per node (default 1). Counter names hash over the pool, so a
// large population of counters spreads its frames — and its sessions'
// sequence spaces — over the pool instead of serializing on one
// connection's writer.
func WithPoolSize(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithFailAfter sets the failure budget: a node is declared dead after
// this many consecutive failed reconnect attempts by any of its pooled
// clients (default 10). With the default backoff that is on the order
// of a few seconds of unreachability.
func WithFailAfter(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.failAfter = n
		}
	}
}

// WithBackoff forwards a reconnect backoff window (base doubling to
// cap, full jitter) to every pooled client; see remote.WithBackoff.
func WithBackoff(base, cap time.Duration) Option {
	return func(c *config) { c.remote = append(c.remote, remote.WithBackoff(base, cap)) }
}

// WithDialer forwards a transport dialer to every pooled client; see
// remote.WithDialer. The dialer receives the node's address.
func WithDialer(d func(addr string) (net.Conn, error)) Option {
	return func(c *config) { c.remote = append(c.remote, remote.WithDialer(d)) }
}

// Cluster is a client for a set of counterd nodes. It is safe for
// concurrent use; all counters obtained from it share its pooled
// connections. Obtain one with DialCluster and release it with Close.
type Cluster struct {
	cfg config

	mu       sync.Mutex
	nodes    []*node
	counters map[string]*Counter
	closed   bool
}

// node is one member: its address, the address's hash (the member's
// half of every placement score) and its pooled clients. down (out of
// placement) and retired (out of Live, once failNode has replayed) are
// guarded by Cluster.mu and latch — a dead member never comes back.
type node struct {
	addr    string
	hash    uint64
	clients []*remote.Client
	down    bool
	retired bool
}

// counterFor resolves the pooled remote counter hosting name on this
// node; the pool index is derived from the name's hash so every call
// (and every replay) for a name uses the same session.
func (n *node) counterFor(name string, hash uint64) *remote.Counter {
	return n.clients[hash%uint64(len(n.clients))].Counter(name)
}

// DialCluster connects to every member of the static address list and
// returns a cluster client. Every address must be dialable at start —
// a cluster that begins degraded would silently mis-place names.
func DialCluster(addrs []string, opts ...Option) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: empty member list")
	}
	cfg := config{poolSize: 1, failAfter: 10}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Cluster{cfg: cfg, counters: make(map[string]*Counter)}
	for _, addr := range addrs {
		n := &node{addr: addr, hash: fnv64a(addr)}
		c.nodes = append(c.nodes, n) // registered before dialing so Close sees a partial pool
		for i := 0; i < cfg.poolSize; i++ {
			ropts := append([]remote.Option{
				remote.WithRetryNotify(c.retryWatcher(n)),
				remote.WithRestartNotify(c.restartWatcher(n)),
			}, cfg.remote...)
			cl, err := remote.Dial(addr, ropts...)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
			}
			n.clients = append(n.clients, cl)
		}
	}
	return c, nil
}

// Close tears the cluster down: every pooled client closes, and every
// outstanding wait resolves with remote.ErrClosed. The ledger is
// abandoned with the cluster.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var clients []*remote.Client
	for _, n := range c.nodes {
		clients = append(clients, n.clients...)
	}
	c.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
	return nil
}

// Counter returns the named cluster counter, hosted by whichever live
// node the name hashes to. Names must be 1..wire.MaxName bytes (the
// same contract as remote.Client.Counter).
func (c *Cluster) Counter(name string) *Counter {
	if name == "" || len(name) > wire.MaxName {
		panic(fmt.Sprintf("cluster: bad counter name %q", name))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{cl: c, name: name, hash: fnv64a(name)}
		c.counters[name] = ctr
	}
	return ctr
}

// NodeFor reports the address of the live node currently hosting name;
// ok is false once no members are live. Placement is a pure function of
// the member list and the set of dead nodes, so every cluster client
// with the same view reports the same address.
func (c *Cluster) NodeFor(name string) (addr string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.routeLocked(fnv64a(name))
	if n == nil {
		return "", false
	}
	return n.addr, true
}

// Live reports the addresses of the members not declared dead. A dying
// member leaves it once failNode has replayed its names' ledgers, so
// Counter.Contribution is exact from then on.
func (c *Cluster) Live() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, n := range c.nodes {
		if !n.retired {
			out = append(out, n.addr)
		}
	}
	return out
}

// retryWatcher is the per-node failure budget: any pooled client of n
// exceeding cfg.failAfter consecutive failed reconnects declares the
// node dead. It runs on the client's reader goroutine, which failNode's
// Close waits for, so it starts failNode on a goroutine of its own.
func (c *Cluster) retryWatcher(n *node) func(failures int, err error) {
	return func(failures int, err error) {
		if failures >= c.cfg.failAfter {
			go c.failNode(n)
		}
	}
}

// restartWatcher handles the quick-restart case: the node came back as
// a fresh instance before the failure budget was spent, detected by the
// boot epoch changing across a reconnect. The old instance's hosted
// values are gone, so the member is retired like any other death and
// the ledger replays to the successor. It runs on the reader goroutine,
// as retryWatcher does, and so starts failNode on its own goroutine.
func (c *Cluster) restartWatcher(n *node) func(oldE, newE uint64) {
	return func(_, _ uint64) {
		go c.failNode(n)
	}
}

// failNode declares n dead in four steps. (1) Under c.mu, n leaves
// placement, re-homing each of its names on the live member that scores
// next for it, and every moved name's cached route is cleared. (2) n's
// pooled clients close, outside c.mu, since Close kicks their armed
// hooks and routed predicate registrations, whose re-arm takes c.mu in
// Counter.ArmHook or Cluster.ArmSpec on its way to the new home; their
// parked waits get remote.ErrClosed and route again. (3) Each moved
// name's ledger in the closed client is replayed through
// Counter.TryIncrement, into the new home's ledger. (4) n leaves Live.
// Exactly-once holds because a closed client's ledger is final: an
// increment entered it under the client's lock before (2), or found the
// client closed, entered no ledger and routed again. The session
// seq-dedup covers any reconnect during the replay itself. Close waits
// for the reader goroutines of n's clients, so failNode must not run on
// one.
func (c *Cluster) failNode(n *node) {
	c.mu.Lock()
	if c.closed || n.down {
		c.mu.Unlock()
		return
	}
	// The moved set is computed while n still scores: routeLocked skips
	// members that are down. Every moved route is cleared, or a counter
	// that only waits would keep re-asking the retired pool. A counter
	// with no route holds no ledger in n's clients: increments go through
	// the route, which nothing else clears while n's clients are open.
	var moved []*Counter
	for _, ctr := range c.counters {
		if c.routeLocked(ctr.hash) == n && ctr.route.Swap(nil) != nil {
			moved = append(moved, ctr)
		}
	}
	n.down = true
	c.mu.Unlock()
	for _, cl := range n.clients {
		cl.Close()
	}
	for _, ctr := range moved {
		if amt := n.counterFor(ctr.name, ctr.hash).Contribution(); amt > 0 {
			// ErrClosed or ErrNoNodes: the Cluster closed, or the last
			// member died, and no home is left to replay into.
			_ = ctr.TryIncrement(amt)
		}
	}
	c.mu.Lock()
	n.retired = true
	c.mu.Unlock()
}

// routeLocked resolves a name hash to its live home by rendezvous
// hashing: the live member with the highest score mix(hash ^ n.hash),
// ties going to the lower address so the order of the member list never
// matters. nil once no member is live. Callers hold c.mu.
func (c *Cluster) routeLocked(hash uint64) *node {
	var best *node
	var top uint64
	for _, n := range c.nodes {
		if n.down {
			continue
		}
		score := mix(hash ^ n.hash)
		if best == nil || score > top || score == top && n.addr < best.addr {
			best, top = n, score
		}
	}
	return best
}

// homeLocked returns the remote counter currently hosting ctr, nil once
// no member is live. The route is cached on ctr until failNode moves
// its name, or an increment finds its client closed, so a steady stream
// of operations on a name neither scores the members nor looks the name
// up in the pooled client. Callers hold c.mu.
func (c *Cluster) homeLocked(ctr *Counter) *remote.Counter {
	rc := ctr.route.Load()
	if rc == nil {
		n := c.routeLocked(ctr.hash)
		if n == nil {
			return nil
		}
		rc = n.counterFor(ctr.name, ctr.hash)
		ctr.route.Store(rc)
	}
	return rc
}

// homeCounter routes name to the remote counter currently hosting it.
func (c *Cluster) homeCounter(ctr *Counter) (*remote.Counter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, remote.ErrClosed
	}
	rc := c.homeLocked(ctr)
	if rc == nil {
		return nil, ErrNoNodes
	}
	return rc, nil
}

// fnv64a is FNV-1a over s run through mix — allocation-free
// (hash/fnv's Hash64 would escape per route), stable across processes,
// and the single hash that placement scores and pool selection both
// derive from. Placement runs every score through mix again; the
// finalizer here matters to the pool choice, hash % pool size: raw
// FNV-1a's lowest bit is only the parity of the bytes' lowest bits, so
// names differing only in even digits would all share one slot.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix(h)
}

// mix is murmur3's 64-bit avalanche finalizer (fmix64): every input bit
// flips each output bit with probability about one half. It finishes
// fnv64a and turns a name hash and a member hash into a placement score.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
