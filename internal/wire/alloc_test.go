//go:build !race

package wire

import (
	"bufio"
	"bytes"
	"slices"
	"testing"

	"monotonic/internal/predicate"
)

// TestSteadyStateAllocs pins the steady-state frame path at zero heap
// allocations per frame: encoding an increment into a reused buffer, or
// an entry onto an OpIncrements frame, decoding it into a reused frame
// through an intern hook that already holds its name, decoding the two
// frames a client receives in bulk, OpIncAck and OpWake, and decoding
// an OpWaitFor and a 16-entry OpIncrements into a frame handed the
// storage of the last one's watch list and entries, as counterd's
// reader does. (The race detector inflates allocation counts, hence
// the build tag.)
func TestSteadyStateAllocs(t *testing.T) {
	inc := Frame{Op: OpIncrement, Name: "jobs", Seq: 1 << 20, Amount: 1}
	out := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { out = Append(out[:0], &inc) }); n != 0 {
		t.Errorf("Append(increment): %v allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		out = Append(out[:0], &Frame{Op: OpIncrements, Seq: 1 << 20, Incs: []Inc{{Slot: 0, Name: "jobs", Amount: 1}}})
		out = AppendInc(out, 0, Inc{Slot: 0, Amount: 1})
	}); n != 0 {
		t.Errorf("Append(increments) and AppendInc: %v allocs per frame, want 0", n)
	}

	intern, _ := internTable()
	intern([]byte(inc.Name))
	waitFor := Frame{Op: OpWaitFor, ID: 7, Pred: predicate.KindThreshold, K: 2, Watch: []Watch{
		{Name: "q0", Level: 3}, {Name: "q1", Level: 3}, {Name: "q2", Level: 3}, {Name: "q3", Level: 3}}}
	for _, w := range waitFor.Watch {
		intern([]byte(w.Name))
	}
	incs := Frame{Op: OpIncrements, Seq: 1 << 20, Incs: make([]Inc, 16)}
	for i := range incs.Incs {
		incs.Incs[i] = Inc{Slot: uint64(i % 4), Amount: uint64(i)}
		if i < 4 {
			incs.Incs[i].Name = waitFor.Watch[i].Name
		}
	}
	for _, tc := range []struct {
		f      Frame
		intern func([]byte) string
	}{
		{inc, intern},
		{Frame{Op: OpIncAck, Seq: 1 << 20}, nil},
		{Frame{Op: OpWake, ID: 9, Level: 1 << 30}, nil},
		{waitFor, intern},
		{incs, intern},
	} {
		buf := Append(nil, &tc.f)
		rd := bytes.NewReader(nil)
		br := bufio.NewReader(rd)
		var f Frame
		var kept []Watch
		var keptIncs []Inc
		n := testing.AllocsPerRun(100, func() {
			rd.Reset(buf)
			br.Reset(rd)
			f.Watch, f.Incs = kept, keptIncs
			err := ReadInterned(br, tc.intern, &f)
			if err != nil || f.Op != tc.f.Op || f.Seq != tc.f.Seq || f.ID != tc.f.ID ||
				!slices.Equal(f.Watch, tc.f.Watch) || !slices.Equal(f.Incs, tc.f.Incs) {
				t.Fatalf("Read(%s) = %+v, %v", tc.f.Op, f, err)
			}
			kept, keptIncs = f.Watch, f.Incs
		})
		if n != 0 {
			t.Errorf("Read(%s): %v allocs per frame, want 0", tc.f.Op, n)
		}
	}
}
