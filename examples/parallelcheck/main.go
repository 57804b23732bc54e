// Parallelcheck: run SP-hybrid — the paper's parallel SP-maintenance
// algorithm — under the work-stealing scheduler across worker counts, and
// watch the two-tier machinery at work: steals split traces (4 new traces
// per steal), the global tier orders traces with lock-free queries, and
// the local tier (SP-bags on union-find) orders threads within traces.
//
// Run with:
//
//	go run ./examples/parallelcheck
package main

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/sphybrid"
	"repro/internal/spt"
)

func main() {
	tree := spt.FibTree(16, 2)
	fmt.Printf("workload: fib(16) — %d threads, T1=%d, cost-span T∞=%d, structural T∞=%d\n\n",
		tree.NumThreads(), tree.Work(), tree.Span(), tree.StructuralSpan())

	fmt.Printf("%3s | %8s %8s %8s %10s %12s %12s\n",
		"P", "steals", "splits", "traces", "queries", "localunions", "retries")
	for _, p := range []int{1, 2, 4, 8} {
		// Each thread issues one SP query against a remembered earlier
		// thread, exactly like a race detector would.
		var last atomic.Pointer[spt.Node]
		var agree, total atomic.Int64
		var h *sphybrid.SPHybrid
		h = sphybrid.New(tree, func(w int, u *spt.Node) {
			if prev := last.Load(); prev != nil && prev != u {
				total.Add(1)
				// One of Precedes/Parallel/Follows must hold for
				// distinct threads (u is currently executing).
				if h.Precedes(prev, u) || h.Parallel(prev, u) || h.Precedes(u, prev) {
					agree.Add(1)
				}
			}
			last.Store(u)
			runtime.Gosched() // let thieves in on single-CPU hosts
		})
		st := h.Run(p, int64(p))
		fmt.Printf("%3d | %8d %8d %8d %10d %12d %12d\n",
			p, st.Steals, st.Splits, st.Traces, st.Queries, st.LocalUnions, st.QueryRetries)
		if agree.Load() != total.Load() {
			fmt.Printf("     !! %d/%d queries returned no relation\n", agree.Load(), total.Load())
		}
	}

	fmt.Println("\ninvariants: traces = 4·splits + 1; splits = successful steals;")
	fmt.Println("global-tier inserts = 4 per split — synchronization cost scales with")
	fmt.Println("steals (O(P·T∞)), not with work (Θ(T1)) as the naive locked version does.")
}
