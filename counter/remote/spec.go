package remote

import (
	"slices"

	cwait "monotonic/counter/wait"
	"monotonic/internal/wire"
)

// Server-side predicate waits (wire v3). A Client is a wait.SpecHost:
// counter/wait's combinators, seeing every watched counter nominate the
// same Client, arm ONE OpWaitFor registration here instead of one
// sentinel (one wire-level wait, re-sent per frontier move) per watched
// counter. The server parks one predicate entry per registration and
// answers with a single OpWake when the predicate flips — increments
// that cannot flip it cost this client zero frames in either direction.
// Against a v2 server (no FeatureWaitFor) ArmSpec refuses and the
// predicate engine falls back to the per-counter watermark path
// unchanged. A registration is one entry in the client's wait table,
// answered and swept with the parked OpChecks. It lives for one link: a
// reconnect fires it false, as Close does, and the predicate engine
// asks again over the new link.

// specFrame fills f with the OpWaitFor frame for spec, which must be
// wire-encodable, reusing the storage of f's watch list. Each kind sends
// only its own fields: a sum's target, a threshold's k and levels.
func specFrame(f *wire.Frame, spec cwait.Spec) {
	watch := slices.Grow(f.Watch[:0], len(spec.Counters))
	*f = wire.Frame{Op: wire.OpWaitFor, Pred: spec.Kind}
	threshold := spec.Kind == cwait.KindThreshold
	if threshold {
		f.K = uint64(spec.K)
	} else {
		f.Target = spec.Target
	}
	for i, c := range spec.Counters {
		w := wire.Watch{Name: c.(interface{ Name() string }).Name()} // Encodable: every counter is named
		if threshold {
			w.Level = spec.Levels[i]
		}
		watch = append(watch, w)
	}
	f.Watch = watch
}

// ArmSpec registers spec for server-side evaluation, making the Client
// a wait.SpecHost. It refuses (ok = false) when the spec is not
// wire-encodable, the negotiated session lacks FeatureWaitFor (v2
// server, or the client was dialed WithProtocol(2)), or the client is
// closed/poisoned — the caller then evaluates client-side. An accepted
// registration keeps the predicate.External contract: fire(true)
// arrives when the server observes the predicate holding, and
// fire(false) once when the registration dies without an answer (the
// link was lost, or the client closed). The predicate engine takes
// fire(false) as a kick and asks again, which monotonicity makes safe;
// the re-ask is refused for the reasons above.
//
// The OpWaitFor frame is encoded from the client's scratch frame under
// the hold of cl.mu that parks the entry, and the entry keeps no frame,
// so a registration allocates only the cancel.
//
// ArmSpec and the returned cancel are called under the predicate
// engine's lock; both only take cl.mu and enqueue — no round trips.
func (cl *Client) ArmSpec(spec cwait.Spec, fire func(satisfied bool)) (cancel func() bool, ok bool) {
	if !spec.Encodable() {
		return nil, false
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed || cl.fatal != nil || cl.features&wire.FeatureWaitFor == 0 {
		return nil, false
	}
	specFrame(&cl.spec, spec) // a remote or cluster counter's Name takes no lock
	id := cl.parkLocked(wait{fire: fire}, nil, &cl.spec)
	return func() bool { return cl.unpark(id) }, true
}

// ServerFeatures returns the feature bits the server advertised in the
// last completed handshake — callers can observe whether predicate
// waits run server-side (wire.FeatureWaitFor) or fall back to the
// per-counter client path. Zero against a v2 server, with
// WithProtocol(2), or before the first handshake.
func (cl *Client) ServerFeatures() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.features
}

// WireStats reports the total frames this client has enqueued to and
// received from the server over its lifetime, across reconnects. Tests
// and experiments use the deltas to assert wire-cost bounds — e.g. E27
// pins "zero frames in either direction on the waiting client per
// non-flipping increment".
func (cl *Client) WireStats() (sent, received uint64) {
	return cl.framesSent.Load(), cl.framesRecv.Load()
}
