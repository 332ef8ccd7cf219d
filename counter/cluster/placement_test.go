package cluster

import (
	"fmt"
	"testing"
)

// members builds an undialed cluster over addrs: placement needs only
// the member hashes and the down flags.
func members(addrs ...string) *Cluster {
	c := &Cluster{}
	for _, a := range addrs {
		c.nodes = append(c.nodes, &node{addr: a, hash: fnv64a(a)})
	}
	return c
}

// homes places every name on c and returns each name's home address.
func homes(t *testing.T, c *Cluster, names []string) []string {
	t.Helper()
	out := make([]string, len(names))
	for i, name := range names {
		n := c.routeLocked(fnv64a(name))
		if n == nil {
			t.Fatalf("no home for %q with %d live members", name, len(c.nodes))
		}
		out[i] = n.addr
	}
	return out
}

// TestRendezvousPlacement pins the two properties ledger-replay failover
// needs from placement, on fixed synthetic member sets: a name's home
// is a function of the member set alone (the list's order does not
// matter), and a member's death moves exactly the names it hosted,
// spreading them over every survivor. It also bounds the balance: each
// member's share of 3,000 names is within 10% of an even split.
func TestRendezvousPlacement(t *testing.T) {
	const total = 3000
	names := make([]string, total)
	for i := range names {
		names[i] = fmt.Sprintf("placement-%d", i)
	}
	for _, addrs := range [][]string{
		{"10.0.0.1:7667", "10.0.0.2:7667", "10.0.0.3:7667"},
		{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003", "127.0.0.1:7004"},
	} {
		c := members(addrs...)
		base := homes(t, c, names)

		rev := make([]string, len(addrs))
		for i, a := range addrs {
			rev[len(addrs)-1-i] = a
		}
		for i, h := range homes(t, members(rev...), names) {
			if h != base[i] {
				t.Fatalf("%v: %q homed on %s, on %s with the list reversed", addrs, names[i], base[i], h)
			}
		}

		share := map[string]int{}
		for _, h := range base {
			share[h]++
		}
		even := total / len(addrs)
		for _, a := range addrs {
			if d := share[a] - even; d*10 > even || -d*10 > even {
				t.Errorf("%v: %s hosts %d of %d names, more than 10%% off the even %d", addrs, a, share[a], total, even)
			}
		}

		for _, dead := range c.nodes {
			dead.down = true
			got := map[string]int{}
			for i, h := range homes(t, c, names) {
				switch {
				case base[i] == dead.addr && h == dead.addr:
					t.Fatalf("%v: %q still homed on down member %s", addrs, names[i], h)
				case base[i] == dead.addr:
					got[h]++
				case h != base[i]:
					t.Fatalf("%v: %s down moved %q from live %s to %s", addrs, dead.addr, names[i], base[i], h)
				}
			}
			if len(got) != len(addrs)-1 {
				t.Errorf("%v: %s's %d names moved to %d of %d survivors: %v",
					addrs, dead.addr, share[dead.addr], len(got), len(addrs)-1, got)
			}
			t.Logf("%v: %s down, its %d names moved to %v", addrs, dead.addr, share[dead.addr], got)
			dead.down = false
		}
		t.Logf("%v: shares %v", addrs, share)
	}
}
