package counter_test

import (
	"strings"
	"testing"

	"monotonic/counter"
	"monotonic/counter/countertest"
)

// TestOpenConformance drives the full black-box conformance battery
// through Open for every registered implementation name: anything
// reachable by name must be interchangeable behind the Interface.
func TestOpenConformance(t *testing.T) {
	for _, name := range counter.Impls() {
		name := name
		t.Run(name, func(t *testing.T) {
			countertest.Run(t, func(t *testing.T) counter.Interface {
				c, err := counter.Open(name)
				if err != nil {
					t.Fatalf("Open(%q): %v", name, err)
				}
				return c
			})
		})
	}
}

// TestOpenPredicates drives the predicate-wait battery (counter/wait
// over the sentinel surface) through Open for every registered
// implementation name.
func TestOpenPredicates(t *testing.T) {
	for _, name := range counter.Impls() {
		name := name
		t.Run(name, func(t *testing.T) {
			countertest.RunPredicates(t, func(t *testing.T) counter.Interface {
				c, err := counter.Open(name)
				if err != nil {
					t.Fatalf("Open(%q): %v", name, err)
				}
				return c
			})
		})
	}
}

// TestOpenStatsProvider pins the facade guarantee that every opened
// counter also reports stats (so counter.Publish works on any of them).
func TestOpenStatsProvider(t *testing.T) {
	for _, name := range counter.Impls() {
		c, err := counter.Open(name)
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		sp, ok := c.(counter.StatsProvider)
		if !ok {
			t.Fatalf("Open(%q) counter does not implement StatsProvider", name)
		}
		c.Increment(3)
		c.Check(3)
		st := sp.Stats()
		if st.Increments != 1 {
			t.Errorf("Open(%q): Stats().Increments = %d after one increment, want 1", name, st.Increments)
		}
		if st.RemoteRoundTrips != 0 || st.RemoteWaitNanos != 0 {
			t.Errorf("Open(%q): Remote* stats nonzero for an in-process counter: %+v", name, st)
		}
	}
}

// TestOpenUnknown pins the error contract: unknown names fail with a
// message listing what would have worked. Names match exactly — no case
// folding, no trimming — so near-misses of real names are unknown too.
func TestOpenUnknown(t *testing.T) {
	for _, bad := range []string{"nonesuch", "", "List", " sharded", "fc "} {
		_, err := counter.Open(bad)
		if err == nil {
			t.Errorf("Open(%q) succeeded", bad)
			continue
		}
		for _, name := range counter.Impls() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Open(%q) error %q does not list implementation %q", bad, err, name)
			}
		}
	}
}

// TestImplsIncludesTunedDesigns guards the registry wiring: the two
// designs with dedicated public types must be reachable by name too.
func TestImplsIncludesTunedDesigns(t *testing.T) {
	have := make(map[string]bool)
	for _, name := range counter.Impls() {
		have[name] = true
	}
	for _, want := range []string{"list", "sharded"} {
		if !have[want] {
			t.Errorf("Impls() = %v: missing %q", counter.Impls(), want)
		}
	}
}
