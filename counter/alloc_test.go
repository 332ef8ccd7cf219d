//go:build !race

package counter_test

import (
	"testing"
	"time"

	"monotonic/counter"
)

// TestWaitTimeoutSatisfiedAllocs pins that a WaitTimeout whose level the
// value already covers answers from the design's own lock-free look,
// before any timer context is made, on every design Open returns. (The
// race detector inflates allocation counts, hence the build tag.)
func TestWaitTimeoutSatisfiedAllocs(t *testing.T) {
	for _, name := range counter.Impls() {
		c, err := counter.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		c.Increment(5)
		if n := testing.AllocsPerRun(100, func() {
			if !c.WaitTimeout(3, time.Second) {
				t.Fatal("WaitTimeout(3, 1s) = false with value 5")
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per satisfied WaitTimeout, want 0", name, n)
		}
	}
}
