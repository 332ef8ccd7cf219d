package counter

import (
	"expvar"
	"sync"
	"sync/atomic"

	"monotonic/internal/core"
)

// Stats are a counter's cumulative cost-model measurements — the paper's
// section 7 claims ("storage and time proportional to distinct waited-on
// levels, not waiters") made observable in production. Stats is the
// engine's one schema, passed along unchanged by every layer, so each
// field is documented on internal/core's Stats, with the snapshot
// invariants; docs/PATTERNS.md ("Observing a counter in production")
// reads each field against the cost model. Counters only ever grow;
// Reset does not clear them, so they can be exported as monotone
// metrics.
//
// A remote counter (counter/remote) reports the server-side engine's
// values for the engine fields — they describe the hosted counter, so
// Suspends and ImmediateChecks count every session's wire Checks — plus
// the blocking calls that joined a level it had already sent a Check
// for, the checks its own watermark answered and the Remote* fields,
// its client-local measurements of the wire itself.
type Stats = core.Stats

// StatsProvider is satisfied by every counter in this module (and
// anything else that reports counter stats); Publish exports any
// provider.
type StatsProvider interface {
	Stats() Stats
}

// Event is one probe observation; see SetProbe on any counter type.
type Event = core.Event

// EventKind discriminates probe events.
type EventKind = core.EventKind

// The probe event kinds.
const (
	// EventIncrement fires once per value-changing Increment, after the
	// counter's locks are released; Event.Level carries the amount.
	EventIncrement = core.EventIncrement
	// EventSuspend fires when a waiter is about to park; Event.Level is
	// the level waited on.
	EventSuspend = core.EventSuspend
	// EventWake fires once per satisfied level as its waiters are woken;
	// Event.Level is the level.
	EventWake = core.EventWake
)

// published tracks the expvar names this package owns, each holding a
// swappable provider, so Publish can replace a counter under a name it
// registered before instead of inheriting expvar.Publish's panic.
var published struct {
	sync.Mutex
	m map[string]*atomic.Pointer[StatsProvider]
}

// Publish registers p's stats with package expvar under the given name,
// so they appear (live, as a JSON object) on the standard /debug/vars
// endpoint. Each read of the variable takes a fresh snapshot.
//
// Calling Publish again with a name it has already registered replaces
// the provider atomically — the expvar variable starts reporting the
// new counter — so re-wiring a counter at runtime (or re-running setup
// in tests) is safe. Publish panics only if the name is already taken
// by a different package's expvar.Publish, which this package cannot
// replace; use PublishOnce to make any duplicate a hard error instead.
func Publish(name string, p StatsProvider) {
	published.Lock()
	defer published.Unlock()
	if h, ok := published.m[name]; ok {
		h.Store(&p)
		return
	}
	h := new(atomic.Pointer[StatsProvider])
	h.Store(&p)
	if published.m == nil {
		published.m = make(map[string]*atomic.Pointer[StatsProvider])
	}
	published.m[name] = h
	expvar.Publish(name, expvar.Func(func() any { return (*h.Load()).Stats() }))
}

// PublishOnce is Publish with the strict expvar contract: it panics if
// name was ever published before (by this package or any other), for
// callers that want accidental reuse of a metric name to fail loudly at
// setup.
func PublishOnce(name string, p StatsProvider) {
	published.Lock()
	_, dup := published.m[name]
	published.Unlock()
	if dup {
		panic("counter: PublishOnce of duplicate name " + name)
	}
	Publish(name, p)
}
