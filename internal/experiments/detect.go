package experiments

import (
	"fmt"

	"monotonic/internal/detect"
	"monotonic/internal/harness"
)

// E15: the section 6 guard condition, checked dynamically with vector
// clocks on real executions (the scalable counterpart of E8's exhaustive
// exploration; also available as cmd/racecheck).
func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Section 6: dynamic guard-condition checking (vector clocks)",
		Paper: "Section 6 (citing Thornley's thesis): every pair of operations on a shared " +
			"variable must be separated by a transitive chain of counter operations; if the " +
			"condition holds in one execution it holds in all, so checking one run suffices. " +
			"Programs meeting it are free of access races (though locks alone, which also " +
			"order accesses, still leave the order nondeterministic).",
		Notes: "The checker passes every correctly guarded program (counter chain, lock region, " +
			"fork/join, broadcast, ordered accumulation) and flags each seeded bug (unguarded " +
			"update, missing reader Check) within the trial budget. Lock programs are " +
			"violation-free yet nondeterministic — exactly the paper's distinction between " +
			"race-freedom and determinacy.",
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
