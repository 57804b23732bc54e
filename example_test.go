package repro

import (
	"fmt"

	"repro/internal/sphybrid"
	"repro/internal/spt"
)

// ExampleCanonicalize shows the footnote-6 rewrite that SP-bags and the
// parallel algorithms require.
func ExampleCanonicalize() {
	leaf := func(s string) *spt.Node { return spt.NewLeaf(s, 1) }
	// P(A, S(P(C,D), E)) is not expressible as a single Cilk procedure.
	t := spt.MustTree(spt.NewP(leaf("A"),
		spt.NewS(spt.NewP(leaf("C"), leaf("D")), leaf("E"))))
	fmt.Println("canonical before:", spt.IsCanonical(t))
	canon, _ := spt.Canonicalize(t)
	fmt.Println("canonical after: ", spt.IsCanonical(canon))
	fmt.Println("work preserved:  ", t.Work() == canon.Work() && t.Span() == canon.Span())
	// Output:
	// canonical before: false
	// canonical after:  true
	// work preserved:   true
}

// ExampleSPHybrid runs the parallel algorithm on one worker (so the
// output is deterministic) and queries inside a thread.
func ExampleSPHybrid() {
	t := spt.FibTree(5, 1)
	var first *spt.Node
	var h *sphybrid.SPHybrid
	var sawParallel bool
	h = sphybrid.New(t, func(w int, u *spt.Node) {
		if first == nil {
			first = u
			return
		}
		if u != first && h.Parallel(first, u) {
			sawParallel = true
		}
	})
	stats := h.Run(1, 0)
	fmt.Println("threads executed:", stats.ThreadsExecuted == int64(t.NumThreads()))
	fmt.Println("found parallel threads:", sawParallel)
	// Output:
	// threads executed: true
	// found parallel threads: false
}
