package experiments

import (
	"monotonic/internal/explore"
	"monotonic/internal/harness"
)

// E8: section 6 — exhaustive interleaving exploration of the paper's
// three programs (plus the split-access variant and the cyclic-wait
// deadlock program).
func init() {
	register(Experiment{
		ID:    "E8",
		Title: "Section 6: determinacy by exhaustive interleaving",
		Paper: "Section 6 claims: the lock program {x=x+1}||{x=x*2} is nondeterministic (a race on " +
			"lock-acquisition order); the counter program with Check(0)/Check(1) is deterministic; " +
			"removing the guard (both Check(0)) restores nondeterminism through concurrent access.",
		Notes: "Exhaustive exploration (all schedules, not samples) proves each claim: the lock " +
			"program reaches exactly {7, 8}; the counter program reaches exactly {8}; the unguarded " +
			"program reaches {7, 8} with atomic statements and additionally loses updates ({4, 6}) " +
			"when the read-modify-write is split. The growth table shows the lock fold's outcome " +
			"set exploding with thread count while the counter fold stays at one.",
		Run: func(cfg Config) []*harness.Table {
			t := harness.NewTable("All schedules of the section 6 programs (x initially 3)",
				"program", "distinct outcomes", "outcomes", "deadlock", "states explored")
			cases := []struct {
				name string
				p    explore.Program
			}{
				{"lock: {x=x+1} || {x=x*2}", explore.LockProgram()},
				{"counter: Check(0);x=x+1;Inc || Check(1);x=x*2;Inc", explore.CounterProgram()},
				{"unguarded: both Check(0), atomic stmts", explore.UnguardedProgram()},
				{"unguarded, split load/store", explore.UnguardedSplitProgram()},
				{"cyclic Check/Inc (deadlocks sequentially)", explore.DeadlockProgram()},
			}
			for _, c := range cases {
				res := explore.MustExplore(c.p)
				outs := ""
				for i, o := range res.OutcomeList() {
					if i > 0 {
						outs += "; "
					}
					outs += o
				}
				if outs == "" {
					outs = "-"
				}
				t.Add(c.name, harness.I(len(res.Outcomes)), outs, verdictBool(res.Deadlock), harness.I(res.States))
			}

			growth := harness.NewTable("Ordered fold x=2x+i: outcome count vs thread count (lock reaches n! orders, counter reaches 1)",
				"threads", "lock outcomes", "counter outcomes")
			max := 5
			if cfg.Quick {
				max = 4
			}
			for n := 2; n <= max; n++ {
				lock := explore.MustExplore(explore.LockAccumulateProgram(n))
				cnt := explore.MustExplore(explore.OrderedAccumulateProgram(n))
				growth.Add(harness.I(n), harness.I(len(lock.Outcomes)), harness.I(len(cnt.Outcomes)))
			}
			return []*harness.Table{t, growth}
		},
	})
}

// E9: section 6 — sequential equivalence: for counter-only guarded
// programs whose sequential execution succeeds, the multithreaded outcome
// set is exactly the sequential outcome.
func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Section 6: sequential equivalence of counter programs",
		Paper: "Section 6: if a counter-only-synchronized program with guarded shared variables " +
			"does not deadlock when executed sequentially (ignoring the multithreaded keyword), " +
			"its multithreaded execution does not deadlock and produces the sequential results.",
		Notes: "For each program, the sequential schedule's outcome equals the complete " +
			"multithreaded outcome set (a singleton), with no reachable deadlock — the theorem's " +
			"conclusion verified over every schedule. The E8 cyclic program shows the " +
			"contrapositive: sequential deadlock predicts multithreaded deadlock.",
		Run: func(cfg Config) []*harness.Table {
			t := harness.NewTable("Sequential execution vs all multithreaded schedules",
				"program", "sequential outcome", "multithreaded outcomes", "equivalent")
			cases := []struct {
				name string
				p    explore.Program
			}{
				{"section 6 counter program", explore.CounterProgram()},
				{"ordered fold, 3 threads", explore.OrderedAccumulateProgram(3)},
				{"ordered fold, 4 threads", explore.OrderedAccumulateProgram(4)},
				{"broadcast skeleton (1 writer, 2 readers)", explore.BroadcastProgram()},
			}
			for _, c := range cases {
				seqVars, seqDeadlock := explore.SequentialOutcome(c.p)
				res := explore.MustExplore(c.p)
				seq := "deadlock"
				if !seqDeadlock {
					seq = explore.Render(seqVars)
				}
				outs := ""
				for i, o := range res.OutcomeList() {
					if i > 0 {
						outs += "; "
					}
					outs += o
				}
				equiv := !seqDeadlock && !res.Deadlock && len(res.Outcomes) == 1
				if equiv {
					_, equiv = res.Outcomes[explore.Render(seqVars)]
				}
				t.Add(c.name, seq, outs, verdictBool(equiv))
			}
			return []*harness.Table{t}
		},
	})
}
