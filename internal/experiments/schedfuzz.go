package experiments

import (
	"fmt"
	"sort"
	"strings"

	"monotonic/internal/explore"
	"monotonic/internal/harness"
	"monotonic/internal/sched"
)

// E18: schedule fuzzing of executable programs. Where E8 explores a
// model's schedules exhaustively, this experiment runs the same
// programs as virtual threads (sched.RunProgram) under a deterministic
// cooperative scheduler with seeded random schedules — the paper's
// section 6 development methodology as a testing tool: deterministic
// programs show one outcome across every seed, nondeterministic ones
// show their outcome spread, and cyclic waits are reported as deadlocks
// with reproducible seeds.
func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Section 6 methodology: schedule fuzzing of executable programs",
		Paper: "Section 6's practical payoff is that counter programs can be tested like " +
			"sequential programs. This experiment stress-tests that: each program runs under " +
			"many seeded schedules of a deterministic cooperative scheduler, and the set of " +
			"observed outcomes is tabulated.",
		Notes: "The counter program and the ordered fold produce one outcome across every " +
			"seed; the lock programs spread across their arrival orders; the unguarded program " +
			"exposes lost updates; the cyclic program deadlocks under every schedule, with a " +
			"reproducing seed. Any seed can be replayed exactly, which is the debugging story " +
			"the paper's determinacy argument promises. Each row runs the explore program that " +
			"E8 explores, so every outcome observed here is one of E8's.",
		Run: func(cfg Config) []*harness.Table {
			seeds := uint64(2000)
			if cfg.Quick {
				seeds = 200
			}
			t := harness.NewTable(fmt.Sprintf("Outcomes over %d seeded schedules (x initially 3)", seeds),
				"program", "distinct outcomes", "deadlocks", "example outcomes")
			cases := []struct {
				name string
				p    explore.Program
			}{
				{"counter: Check(0);x+1;Inc || Check(1);x*2;Inc", explore.CounterProgram()},
				{"lock: {x+1} || {x*2}", explore.LockProgram()},
				{"unguarded split load/store", explore.UnguardedSplitProgram()},
				{"ordered fold x=2x+i, 4 threads", explore.OrderedAccumulateProgram(4)},
				{"lock fold x=2x+i, 4 threads", explore.LockAccumulateProgram(4)},
				{"cyclic Check/Inc (always deadlocks)", explore.DeadlockProgram()},
			}
			for _, c := range cases {
				seen := map[string]bool{}
				deadlocks := 0
				for seed := uint64(0); seed < seeds; seed++ {
					vars, out := sched.RunProgram(seed, c.p)
					if out.Deadlock {
						deadlocks++
						continue
					}
					seen[explore.Render(vars)] = true
				}
				outcomes := make([]string, 0, len(seen))
				for o := range seen {
					outcomes = append(outcomes, o)
				}
				sort.Strings(outcomes)
				examples := strings.Join(outcomes, "; ")
				if len(outcomes) > 4 {
					examples = strings.Join(outcomes[:4], "; ") + "; ..."
				}
				if examples == "" {
					examples = "-"
				}
				t.Add(c.name, harness.I(len(outcomes)), harness.I(deadlocks), examples)
			}
			return []*harness.Table{t}
		},
	})
}
