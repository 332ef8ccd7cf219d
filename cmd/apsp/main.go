// Command apsp solves random all-pairs shortest-path instances with the
// four programs of the paper's section 4 and reports timings and
// agreement.
//
// Usage:
//
//	apsp -figure1                        # print the paper's Figure 1
//	apsp -n 256 -threads 8 -sync counter # one variant, timed
//	apsp -n 128 -all                     # all variants, cross-checked
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/graph"
	"monotonic/internal/sthreads"
	"monotonic/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 128, "number of vertices")
		threads  = flag.Int("threads", 4, "worker threads for parallel variants")
		syncMech = flag.String("sync", "counter", "seq | barrier | condvar | counter")
		density  = flag.Float64("density", 0.35, "edge probability")
		seed     = flag.Uint64("seed", 1, "graph seed")
		negative = flag.Bool("negative", false, "include negative edge weights (no negative cycles)")
		skewName = flag.String("skew", "", "inject load imbalance: one-slow | linear | alternating")
		figure1  = flag.Bool("figure1", false, "solve the paper's Figure 1 example and exit")
		all      = flag.Bool("all", false, "run every variant and verify agreement")
	)
	flag.Parse()

	if *figure1 {
		edge := graph.Figure1()
		path := graph.ShortestPaths1(edge)
		fmt.Println("edge matrix (Figure 1 input):")
		fmt.Print(edge.String())
		fmt.Println("path matrix (computed):")
		fmt.Print(path.String())
		if path.Equal(graph.Figure1Paths()) {
			fmt.Println("matches the paper's Figure 1 output.")
		} else {
			fmt.Println("DOES NOT match the paper's Figure 1 output!")
			os.Exit(1)
		}
		return
	}

	var edge graph.Matrix
	if *negative {
		edge = graph.RandomNegative(*n, *density, 15, 6, *seed)
	} else {
		edge = graph.Random(*n, *density, 20, *seed)
	}
	var skew workload.Skew
	switch *skewName {
	case "":
	case "one-slow":
		skew = workload.OneSlow{Max: 4}
	case "linear":
		skew = workload.Linear{Max: 3}
	case "alternating":
		skew = workload.Alternating{Max: 3}
	default:
		fmt.Fprintf(os.Stderr, "apsp: unknown skew %q\n", *skewName)
		os.Exit(2)
	}

	run := func(name string) (graph.Matrix, time.Duration) {
		start := time.Now()
		var m graph.Matrix
		switch name {
		case "seq":
			m = graph.ShortestPaths1(edge)
		case "barrier":
			m = graph.ShortestPaths2(edge, *threads, sthreads.Concurrent, skew)
		case "condvar":
			m = graph.ShortestPaths3CV(edge, *threads, sthreads.Concurrent, skew)
		case "counter":
			m = graph.ShortestPaths3(edge, *threads, sthreads.Concurrent, skew, core.ImplList.New)
		default:
			fmt.Fprintf(os.Stderr, "apsp: unknown sync mechanism %q\n", name)
			os.Exit(2)
		}
		return m, time.Since(start)
	}

	if *all {
		want, dSeq := run("seq")
		fmt.Printf("%-8s %12v\n", "seq", dSeq)
		for _, name := range []string{"barrier", "condvar", "counter"} {
			got, d := run(name)
			status := "ok"
			if !got.Equal(want) {
				status = "DISAGREES"
			}
			fmt.Printf("%-8s %12v  %s\n", name, d, status)
		}
		return
	}

	_, d := run(*syncMech)
	fmt.Printf("n=%d threads=%d sync=%s: %v\n", *n, *threads, *syncMech, d)
}
