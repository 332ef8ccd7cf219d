package experiments

import (
	"fmt"

	"monotonic/internal/detect"
	"monotonic/internal/harness"
)

// E15: the section 6 guard condition, checked dynamically with vector
// clocks on real executions of the programs E8 and E9 explore (the
// scalable counterpart of E8's exhaustive exploration; also available as
// cmd/racecheck).
func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Section 6: dynamic guard-condition checking (vector clocks)",
		Paper: "Section 6 (citing Thornley's thesis): every pair of operations on a shared " +
			"variable must be separated by a transitive chain of counter operations; if the " +
			"condition holds in one execution it holds in all. A vector-clock check of one run " +
			"carries to every run when the increments that satisfy each Check are ordered among " +
			"themselves (one incrementing thread per counter, or incrementers chained by Checks), " +
			"which every program here meets. Programs meeting the condition are free of access " +
			"races (though locks alone, which also order accesses, still leave the order " +
			"nondeterministic).",
		Notes: "The checker passes every correctly guarded program (counter chain, lock region, " +
			"broadcast) and flags each seeded bug (unguarded update, missing reader Check) within " +
			"the trial budget; cmd/racecheck adds section 5.2's ordered accumulation, also clean. " +
			"The rows run E8's and E9's explore programs, the last with the readers' Checks " +
			"stripped. Lock programs are violation-free yet nondeterministic — exactly the " +
			"paper's distinction between race-freedom and determinacy.",
		Run: func(cfg Config) []*harness.Table {
			trials := 30
			if cfg.Quick {
				trials = 10
			}
			t := harness.NewTable(fmt.Sprintf("Vector-clock checking over up to %d schedules per program", trials),
				"program", "expected", "result", "verdict")
			for _, p := range detect.Programs() {
				seen, ok := p.Check(trials)
				result := "clean"
				if len(seen) > 0 {
					result = "race: " + seen[0].String()
				}
				t.Add(p.Name, p.Expects, result, verdict(ok))
			}
			return []*harness.Table{t}
		},
	})
}
