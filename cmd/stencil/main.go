// Command stencil runs the section 5.1 heat-rod simulation with the
// traditional barrier or the ragged counter barrier, at per-cell or
// blocked granularity, and reports timing and final temperatures.
//
// Usage:
//
//	stencil -cells 256 -steps 500 -sync counter
//	stencil -cells 1024 -steps 500 -sync counter-blocked -threads 8 -skew one-slow
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/stencil"
	"monotonic/internal/workload"
)

func main() {
	var (
		cells    = flag.Int("cells", 128, "rod cells including the two fixed boundary cells")
		steps    = flag.Int("steps", 200, "time steps")
		threads  = flag.Int("threads", 4, "threads for blocked variants")
		syncMech = flag.String("sync", "counter", "seq | barrier | counter | barrier-blocked | counter-blocked")
		skewName = flag.String("skew", "", "inject load imbalance: one-slow | linear | alternating")
		show     = flag.Int("show", 8, "print this many evenly spaced cells of the result")
		verify   = flag.Bool("verify", true, "compare against the sequential oracle")
	)
	flag.Parse()

	var skew workload.Skew
	switch *skewName {
	case "":
	case "one-slow":
		skew = workload.OneSlow{Max: 8}
	case "linear":
		skew = workload.Linear{Max: 4}
	case "alternating":
		skew = workload.Alternating{Max: 4}
	default:
		fmt.Fprintf(os.Stderr, "stencil: unknown skew %q\n", *skewName)
		os.Exit(2)
	}

	init := stencil.InitialRod(*cells)
	start := time.Now()
	var got []float64
	switch *syncMech {
	case "seq":
		got = stencil.RunSequential(init, *steps, stencil.Heat)
	case "barrier":
		got = stencil.RunBarrier(init, *steps, stencil.Heat, skew)
	case "counter":
		got = stencil.RunCounter(init, *steps, stencil.Heat, skew, core.ImplList.New)
	case "barrier-blocked":
		got = stencil.RunBarrierBlocked(init, *steps, *threads, stencil.Heat, skew)
	case "counter-blocked":
		got = stencil.RunCounterBlocked(init, *steps, *threads, stencil.Heat, skew)
	default:
		fmt.Fprintf(os.Stderr, "stencil: unknown sync mechanism %q\n", *syncMech)
		os.Exit(2)
	}
	elapsed := time.Since(start)

	fmt.Printf("cells=%d steps=%d sync=%s: %v\n", *cells, *steps, *syncMech, elapsed)
	if *show > 0 && len(got) > 0 {
		stride := len(got) / *show
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(got); i += stride {
			fmt.Printf("  cell %4d: %8.3f\n", i, got[i])
		}
	}
	if *verify && *syncMech != "seq" {
		want := stencil.RunSequential(init, *steps, stencil.Heat)
		for i := range got {
			if got[i] != want[i] {
				fmt.Printf("MISMATCH at cell %d: %v != %v\n", i, got[i], want[i])
				os.Exit(1)
			}
		}
		fmt.Println("bit-identical to the sequential oracle.")
	}
}
