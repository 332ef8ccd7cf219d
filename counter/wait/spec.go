package wait

import (
	"fmt"
	"strings"

	"monotonic/counter"
	"monotonic/internal/predicate"
	"monotonic/internal/wire"
)

// Kind discriminates the predicate shapes a Spec can describe. The two
// kinds cover every combinator in this package: sums compare the
// counters' total against a target; thresholds ask for k of the
// counters to reach their own levels (min is k = n, any is k = 1).
// It is the predicate engine's Kind, which the wire carries as it is.
type Kind = predicate.Kind

const (
	// KindSum is "the counters' values sum to at least Target".
	KindSum = predicate.KindSum
	// KindThreshold is "at least K counters have reached Levels[i]".
	KindThreshold = predicate.KindThreshold
)

// Spec is the canonical, serializable descriptor of a predicate: what a
// combinator means, separated from the engine that evaluates it. A
// combinator builds nothing but its Spec, which the Cond records
// (Cond.Spec) and evaluates as the predicate.Pred of the same fields;
// the wire frame, the cluster router, and log lines all consume this
// one form.
//
// Counters holds the watched counters in coordinate order — the order
// Levels indexes and the order predicate evaluation sees. For
// KindThreshold, Levels has one threshold per counter and K is the
// quorum size (1 <= K <= len(Counters)); for KindSum, Target is the
// bar the values' sum must reach and Levels is nil.
type Spec struct {
	Kind     Kind
	Counters []counter.Interface
	Levels   []uint64
	K        int
	Target   uint64
}

// namer is the optional surface a counter exposes when it has a stable
// wire name (counter/remote and counter/cluster counters do; anonymous
// in-process counters do not).
type namer interface{ Name() string }

// Names returns the counters' wire names in coordinate order, and
// whether every counter has one. A Spec whose counters are not all
// named cannot leave the process.
func (s Spec) Names() ([]string, bool) {
	names := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		n, ok := c.(namer)
		if !ok {
			return nil, false
		}
		names[i] = n.Name()
	}
	return names, true
}

// pred views the Spec as the predicate it describes, sharing its
// levels. K's conversion does not narrow: a negative K turns into one
// above any counter count, which Validate refuses.
func (s Spec) pred() predicate.Pred {
	return predicate.Pred{Kind: s.Kind, Levels: s.Levels, K: uint64(s.K), Target: s.Target}
}

// Encodable reports whether the Spec fits the wire's multi-counter wait
// frame: a shape the predicate engine accepts (predicate.Pred.Validate,
// the check counterd applies to the frame), a watch set within frame
// bounds, and every counter named within name bounds. Encodable says
// nothing about where the counters live — the router still has to find
// one host holding all of them.
func (s Spec) Encodable() bool {
	if len(s.Counters) > wire.MaxWatch || s.pred().Validate(len(s.Counters)) != nil {
		return false
	}
	for _, c := range s.Counters {
		n, ok := c.(namer)
		if !ok {
			return false
		}
		if name := n.Name(); name == "" || len(name) > wire.MaxName {
			return false
		}
	}
	return true
}

// String renders the Spec for logs: "sum(jobs, retries) >= 100",
// "3 of (q0>=7, q1>=7, q2>=9)". Unnamed counters render as "?".
func (s Spec) String() string {
	name := func(i int) string {
		if n, ok := s.Counters[i].(namer); ok {
			return n.Name()
		}
		return "?"
	}
	var b strings.Builder
	switch s.Kind {
	case KindSum:
		b.WriteString("sum(")
		for i := range s.Counters {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(name(i))
		}
		fmt.Fprintf(&b, ") >= %d", s.Target)
	case KindThreshold:
		fmt.Fprintf(&b, "%d of (", s.K)
		for i := range s.Counters {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s>=%d", name(i), s.Levels[i])
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(&b, "%s over %d counters", s.Kind, len(s.Counters))
	}
	return b.String()
}

// SpecHost evaluates whole predicates on behalf of counters it serves —
// a counterd session (counter/remote's Client) or a cluster router that
// can find one. ArmSpec registers spec for server-side evaluation and
// returns ok = false if it cannot (unsupported server, counters spread
// over several members); the caller then evaluates client-side. An
// accepted registration follows the predicate.External contract: fire
// is eventually called exactly once unless cancel prevents it,
// fire(true) means the host observed the predicate holding, and
// registration must never lose a wake. ArmSpec and the returned cancel
// are called under the Cond's internal lock: enqueue and return.
type SpecHost interface {
	ArmSpec(spec Spec, fire func(satisfied bool)) (cancel func() bool, ok bool)
}

// specHosted is the optional surface a counter exposes to nominate the
// host that can evaluate predicates over it server-side.
type specHosted interface{ SpecHost() SpecHost }

// commonHost returns the one host every counter in the Spec nominates,
// if the Spec is encodable and such a host exists. Host identity is
// interface equality: two remote counters from the same Client (or two
// cluster counters from the same cluster) compare equal, which is
// exactly the "could one server see the whole predicate" question.
func (s Spec) commonHost() (SpecHost, bool) {
	if !s.Encodable() {
		return nil, false
	}
	var host SpecHost
	for i, c := range s.Counters {
		h, ok := c.(specHosted)
		if !ok {
			return nil, false
		}
		hh := h.SpecHost()
		if hh == nil {
			return nil, false
		}
		if i == 0 {
			host = hh
		} else if hh != host {
			return nil, false
		}
	}
	return host, true
}
