package remote_test

import (
	"testing"

	"monotonic/counter/countertest"
	"monotonic/counter/remote"
)

// TestContribution pins the ledger a client keeps per counter, the
// record the cluster layer replays after a failover: it sums the
// amounts TryIncrement took, Increment(0) included as nothing; a
// reconnect's re-send of the unacknowledged tail, which the ledger
// already holds, leaves it unchanged; Reset zeroes it; and an amount
// refused with ErrClosed never enters it.
func TestContribution(t *testing.T) {
	addr := startServer(t)
	p := startProxy(t, addr)
	cl := dialClient(t, p.lis.Addr().String())
	c := cl.Counter(countertest.FreshName("ledger"))
	want := func(v uint64, when string) {
		t.Helper()
		if got := c.Contribution(); got != v {
			t.Fatalf("Contribution() = %d %s, want %d", got, when, v)
		}
	}

	c.Increment(3)
	if err := c.TryIncrement(4); err != nil {
		t.Fatal(err)
	}
	c.Increment(0)
	want(7, "after 3, 4 and 0")

	// The link is down before the 5 is queued, so the server first sees
	// it in the re-sent tail of the next link.
	p.setDown(true)
	p.kill()
	c.Increment(5)
	p.setDown(false)
	settled(t, c, 12)
	want(12, "after a reconnect re-sent the tail")

	c.Reset()
	want(0, "after Reset")
	c.Increment(2)
	want(2, "after Reset and 2")

	cl.Close()
	if err := c.TryIncrement(6); err != remote.ErrClosed {
		t.Fatalf("TryIncrement on a closed client = %v, want ErrClosed", err)
	}
	want(2, "after an increment refused with ErrClosed")
}
