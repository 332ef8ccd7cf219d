package experiments

import (
	"strings"

	"monotonic/internal/core"
	"monotonic/internal/graph"
	"monotonic/internal/harness"
	"monotonic/internal/sthreads"
)

// E1: Figure 1 — the 3-vertex all-pairs shortest-path example.
func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Figure 1: APSP input/output matrices",
		Paper: "Figure 1 gives a 3-vertex weighted digraph (edges 1, 2, 4, -3, one negative) " +
			"with its edge matrix and the path matrix the all-pairs shortest-path problem must produce.",
		Notes: "ShortestPaths1 (sequential Floyd-Warshall) and the counter variant reproduce the " +
			"figure's path matrix exactly, including the negative-weight shortcut path[0][1] = -1 " +
			"via V0->V2->V1.",
		Run: func(cfg Config) []*harness.Table {
			edge := graph.Figure1()
			want := graph.Figure1Paths()
			got := graph.ShortestPaths1(edge)

			t := harness.NewTable("Figure 1 reproduction", "matrix", "row 0", "row 1", "row 2", "verdict")
			addMatrix := func(name string, m graph.Matrix, check string) {
				rows := strings.Split(strings.TrimSpace(m.String()), "\n")
				t.Add(name, rows[0], rows[1], rows[2], check)
			}
			addMatrix("edge (paper input)", edge, "-")
			addMatrix("path (paper output)", want, "-")
			addMatrix("path (ShortestPaths1)", got, verdict(got.Equal(want)))
			cnt := graph.ShortestPaths3(edge, 3, sthreads.Concurrent, nil, core.ImplList.New)
			addMatrix("path (counter, 3 threads)", cnt, verdict(cnt.Equal(want)))
			return []*harness.Table{t}
		},
	})
}

// E2: Figure 2 — the counter structure trace.
func init() {
	register(Experiment{
		ID:    "E2",
		Title: "Figure 2: counter structure after each operation",
		Paper: "Figure 2 draws the internal structure of a counter (value + ordered waiting list of " +
			"{level, count, condition} nodes) after seven operations: construction, Check(5) by T1, " +
			"Check(9) by T2, Check(5) by T3, Increment(7) by T0, then T1 and T3 resuming.",
		Notes: "The reference implementation's Inspect() output matches the figure state-for-state: " +
			"two waiters coalesce on the level-5 node, Increment(7) sets that node's condition while " +
			"level 9 stays unset, and the node is unlinked when its last waiter drains.",
		Run: func(cfg Config) []*harness.Table {
			s := core.NewSim()
			t := harness.NewTable("Figure 2 trace (list implementation)", "step", "operation", "structure")
			snap := func(step, op string) {
				t.Add(step, op, s.Snapshot().String())
			}
			snap("(a)", "construction")
			s.Check(5)
			snap("(b)", "Check(5) by T1")
			s.Check(9)
			snap("(c)", "Check(9) by T2")
			s.Check(5)
			snap("(d)", "Check(5) by T3")
			s.Increment(7)
			snap("(e)", "Increment(7) by T0")
			s.Resume(5)
			snap("(f)", "T1 resumes execution")
			s.Resume(5)
			snap("(g)", "T3 resumes execution")
			return []*harness.Table{t}
		},
	})
}
