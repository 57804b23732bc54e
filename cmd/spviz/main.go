// Command spviz prints the paper's worked example: the computation dag of
// Figure 1, the SP parse tree of Figure 2, and the English/Hebrew indices
// of Figure 4, then verifies the two relations quoted in Section 1
// (u1 ≺ u4 and u1 ∥ u6) with the SP-order algorithm.
//
// Usage:
//
//	spviz [-random n] [-seed s] [-backend name] [-trace file]
//
// With -random n it instead generates a random n-thread program and
// prints its tree, dag, and orderings. -backend selects which registered
// SP-maintenance backend verifies the relations ("?" lists the
// registry). -trace records the visualized program's serial event
// stream as a binary trace for `sptrace`.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
)

func main() {
	randomN := flag.Int("random", 0, "visualize a random program with n threads instead of the paper example")
	seed := flag.Int64("seed", 1, "random seed for -random")
	backend := flag.String("backend", "sp-order", "SP-maintenance backend verifying the relations ('?' lists)")
	tracePath := flag.String("trace", "", "record the program's serial event stream to this trace file")
	flag.Parse()

	if *backend == "?" || *backend == "list" {
		fmt.Println("Registered SP-maintenance backends:")
		for _, info := range sp.Backends() {
			fmt.Printf("  %-18s %s\n", info.Name, info.Description)
		}
		return
	}
	if _, ok := sp.Lookup(*backend); !ok {
		fmt.Fprintf(os.Stderr, "unknown backend %q (available: %v, or '?' to list)\n",
			*backend, sp.BackendNames())
		os.Exit(2)
	}

	var tree *spt.Tree
	if *randomN > 0 {
		tree = spt.Generate(spt.DefaultGenConfig(*randomN), rand.New(rand.NewSource(*seed)))
		fmt.Printf("Random SP program: %d threads, work=%d, span=%d\n\n",
			tree.NumThreads(), tree.Work(), tree.Span())
	} else {
		tree = spt.PaperExample()
		fmt.Println("Paper example (Figures 1, 2, and 4)")
		fmt.Println()
	}

	if *tracePath != "" {
		if err := recordTrace(tree, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "recording trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded serial event stream to %s (inspect with: sptrace stat %s)\n\n",
			*tracePath, *tracePath)
	}

	fmt.Println("SP parse tree (Figure 2):")
	fmt.Println(tree.Format())

	fmt.Println("Computation dag (Figure 1):")
	dag := tree.ToDag()
	if err := dag.CheckAcyclic(); err != nil {
		fmt.Fprintln(os.Stderr, "dag invalid:", err)
		os.Exit(1)
	}
	fmt.Println(dag.Format())

	fmt.Println("English-Hebrew indices (Figure 4, 0-based):")
	eng, heb := tree.EnglishHebrewIndex()
	fmt.Printf("  %-10s %8s %8s\n", "thread", "E[u]", "H[u]")
	for _, u := range tree.Threads() {
		fmt.Printf("  %-10s %8d %8d\n", u, eng[u.ID], heb[u.ID])
	}
	fmt.Println()

	if *randomN == 0 {
		// Verify the Section 1 relations on the fly by replaying the
		// tree's event stream through the selected backend.
		m, err := sp.NewMonitor(sp.WithBackend(*backend), sp.WithRaceDetection(false))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !m.Backend().FullQueries {
			fmt.Printf("(note: %s answers queries against the current thread only;\n"+
				" after a completed run every thread relates as \"precedes\")\n", *backend)
		}
		ids := sp.Replay(tree, m)
		threads := tree.Threads()
		u1, u4, u6 := threads[1], threads[4], threads[6]
		fmt.Printf("%s: u1 ≺ u4 ? %v   (paper: true, lca S1 is an S-node)\n",
			*backend, m.Relation(ids.Leaf(u1), ids.Leaf(u4)) == sp.Precedes)
		fmt.Printf("%s: u1 ∥ u6 ? %v   (paper: true, lca P1 is a P-node)\n",
			*backend, m.Relation(ids.Leaf(u1), ids.Leaf(u6)) == sp.Parallel)
	} else {
		demoRelations(tree, *backend)
	}
}

// recordTrace writes tree's serial event stream to path via the shared
// workload.RecordTrace helper (race detection off: spviz only
// visualizes structure).
func recordTrace(tree *spt.Tree, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := workload.RecordTrace(tree, f, sp.WithRaceDetection(false)); err != nil {
		return err
	}
	return f.Close()
}

// demoRelations prints the relation matrix of the first few threads, as
// answered by the selected backend through the event API. Backends that
// only answer queries against the current thread (sp-bags) cannot relate
// two retired threads, so the ground-truth oracle answers for them.
func demoRelations(tree *spt.Tree, backend string) {
	threads := tree.Threads()
	n := len(threads)
	if n > 8 {
		n = 8
	}
	var relate func(u, v *spt.Node) string
	if info, _ := sp.Lookup(backend); !info.FullQueries {
		fmt.Printf("(%s answers queries against the current thread only; matrix uses the LCA oracle)\n", backend)
		o := spt.NewOracle(tree)
		relate = func(u, v *spt.Node) string {
			switch o.Relate(u, v) {
			case spt.Precedes:
				return "p"
			case spt.Follows:
				return "f"
			case spt.Parallel:
				return "|"
			default:
				return "."
			}
		}
	} else {
		m, err := sp.NewMonitor(sp.WithBackend(backend), sp.WithRaceDetection(false))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ids := sp.Replay(tree, m)
		relate = func(u, v *spt.Node) string {
			switch m.Relation(ids.Leaf(u), ids.Leaf(v)) {
			case sp.Precedes:
				return "p"
			case sp.Follows:
				return "f"
			case sp.Parallel:
				return "|"
			default:
				return "=" // same maximal serial block
			}
		}
	}
	fmt.Printf("Relation matrix per %s (first %d threads; p=precedes, f=follows, |=parallel, ==same serial block):\n",
		backend, n)
	fmt.Printf("      ")
	for j := 0; j < n; j++ {
		fmt.Printf("%6s", threads[j].Label)
	}
	fmt.Println()
	for i := 0; i < n; i++ {
		fmt.Printf("%6s", threads[i].Label)
		for j := 0; j < n; j++ {
			c := relate(threads[i], threads[j])
			if threads[i] == threads[j] {
				c = "."
			}
			fmt.Printf("%6s", c)
		}
		fmt.Println()
	}
}
