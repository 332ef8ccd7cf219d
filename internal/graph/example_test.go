package graph_test

import (
	"fmt"

	"monotonic/internal/core"
	"monotonic/internal/graph"
	"monotonic/internal/sthreads"
)

// The paper's Figure 1 example, solved with the counter variant.
func ExampleShortestPaths3() {
	edge := graph.Figure1()
	path := graph.ShortestPaths3(edge, 3, sthreads.Concurrent, nil, core.ImplList.New)
	fmt.Print(path)
	// Output:
	// 0 -1 2
	// 4 0 6
	// 1 -3 0
}
