// Command racecheck runs the paper's section 6 programs (and the main
// synchronization patterns) under the vector-clock determinacy checker of
// internal/detect and reports violations of the shared-variable guard
// condition — the dynamic counterpart of cmd/explore's exhaustive proof.
// It exits 1 if any program's verdict is not the expected one.
//
// Usage:
//
//	racecheck             # check every built-in program
//	racecheck -runs 50    # repeat each program under different schedules
package main

import (
	"flag"
	"fmt"
	"os"

	"monotonic/internal/detect"
	"monotonic/internal/explore"
)

func main() {
	runs := flag.Int("runs", 20, "repetitions per program (races may need schedule luck to appear)")
	flag.Parse()

	programs := append(detect.Programs(), detect.Program{Name: "ordered accumulation (5.2)", Expects: "clean", Program: explore.OrderedAccumulateProgram(8)})
	failed := false
	for _, p := range programs {
		seen, ok := p.Check(*runs)
		switch {
		case ok && len(seen) == 0:
			fmt.Printf("%-32s clean (as expected)\n", p.Name)
		case ok:
			fmt.Printf("%-32s RACE detected (as expected): %s\n", p.Name, seen[0])
		case len(seen) > 0:
			failed = true
			fmt.Printf("%-32s UNEXPECTED violations: %v\n", p.Name, seen)
		default:
			failed = true
			fmt.Printf("%-32s expected a race but %d runs were silent\n", p.Name, *runs)
		}
	}
	if failed {
		os.Exit(1)
	}
}
