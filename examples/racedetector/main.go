// Racedetector: find a real bug with the on-the-fly determinacy-race
// detector — the motivating application of the paper.
//
// The program under test is a parallel loop that fills an output vector
// and a reduction that sums it. In the correct version the reduction runs
// after the loop's join; in the buggy version someone "optimized" it to
// run in parallel with the loop. The detector, running the program ONCE
// serially, proves the buggy version has determinacy races on every
// output cell — and certifies the fixed version race-free.
//
// Run with:
//
//	go run ./examples/racedetector
package main

import (
	"fmt"

	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
)

// detect replays the program's fork, join, and access events through a
// fresh monitor on the named backend — serially, or with real goroutines
// forking at every spawn when workers > 0.
func detect(program *spt.Tree, backend string, workers int) sp.Report {
	m := sp.MustMonitor(sp.WithBackend(backend))
	if workers > 0 {
		sp.ReplayParallel(program, m, workers)
	} else {
		sp.Replay(program, m)
	}
	return m.Report()
}

func main() {
	const width = 6

	fmt.Println("=== buggy version: reduction spawned in parallel with the loop ===")
	buggy := workload.VectorAccumulate(width, true)
	report := detect(buggy, "sp-order", 0)
	fmt.Printf("detector found races on %d locations: %v\n", len(report.Locations), report.Locations)
	for _, r := range report.Races {
		fmt.Println("  ", r)
	}

	fmt.Println("\n=== fixed version: reduction after the join ===")
	report = detect(workload.VectorAccumulate(width, false), "sp-order", 0)
	fmt.Printf("detector found %d races (program is determinate)\n", len(report.Races))

	// Every registered SP-maintenance backend agrees — Figure 3's
	// algorithms are interchangeable as the detector's oracle, differing
	// only in cost.
	fmt.Println("\n=== backend agreement on the buggy version ===")
	for _, b := range sp.BackendNames() {
		rep := detect(buggy, b, 0)
		fmt.Printf("  %-18s %d racy locations, %d SP queries\n", b, len(rep.Locations), rep.Queries)
	}

	// The concurrent backends accept the events of a genuinely parallel
	// execution too.
	fmt.Println("\n=== parallel detection with sp-hybrid (4 goroutines) ===")
	fmt.Printf("  racy locations: %v\n", detect(buggy, "sp-hybrid", 4).Locations)
}
