// Package race holds the scheduler-coupled determinacy-race detectors
// behind the paper's Theorem 10 experiment, plus the quadratic
// full-history checker that tests use as ground truth.
//
// A determinacy race occurs when two logically parallel threads access
// the same shared-memory location and at least one access is a write.
// Both detectors replay a canonical SP parse tree under the Cilk-style
// work-stealing scheduler (internal/sched) and apply the Nondeterminator
// shadow-memory protocol of internal/shadow to each thread's synthetic
// accesses: DetectParallel over the scheduler-coupled SP-hybrid
// (internal/sphybrid), DetectParallelNaive over one sp-order maintainer
// behind a single global lock (Section 3's strawman). Serial, lock-aware,
// and live detection go through sp.Monitor instead.
package race

import (
	"fmt"
	"sort"

	"repro/internal/shadow"
	"repro/internal/spt"
)

// AccessKind distinguishes the two accesses of a reported race.
type AccessKind = shadow.AccessKind

// Access patterns, re-exported from the shared shadow protocol.
const (
	// WriteWrite: both accesses are writes.
	WriteWrite = shadow.WriteWrite
	// WriteRead: the earlier access is a write, the later a read.
	WriteRead = shadow.WriteRead
	// ReadWrite: the earlier access is a read, the later a write.
	ReadWrite = shadow.ReadWrite
)

// Race records one detected determinacy race: two logically parallel
// threads touching the same location, at least one writing.
type Race struct {
	Loc    int
	Kind   AccessKind
	First  *spt.Node // the previously recorded accessor
	Second *spt.Node // the currently executing thread
}

// String renders the race for reports.
func (r Race) String() string {
	return fmt.Sprintf("%s race on x%d between %s and %s", r.Kind, r.Loc, r.First, r.Second)
}

// Report is the outcome of a detection run.
type Report struct {
	Races []Race
	// Locations is the deduplicated, sorted set of raced locations.
	Locations []int
	// Accesses counts replayed memory accesses; Queries counts SP
	// queries issued.
	Accesses int64
	Queries  int64
}

func buildReport(races []Race, accesses, queries int64) Report {
	locSet := map[int]bool{}
	for _, r := range races {
		locSet[r.Loc] = true
	}
	locs := make([]int, 0, len(locSet))
	for l := range locSet {
		locs = append(locs, l)
	}
	sort.Ints(locs)
	return Report{Races: races, Locations: locs, Accesses: accesses, Queries: queries}
}

// FullHistory is the exhaustive ground-truth checker: it records every
// access of the tree's threads, in left-to-right order, and reports a
// race for each parallel conflicting pair (quadratic; tests only).
// Ground truth uses the LCA oracle directly.
func FullHistory(t *spt.Tree) Report {
	o := spt.NewOracle(t)
	type access struct {
		u     *spt.Node
		write bool
	}
	hist := map[int][]access{}
	var races []Race
	var accesses int64
	for _, u := range t.Threads() {
		for _, st := range u.Steps {
			if st.Op != spt.Read && st.Op != spt.Write {
				continue
			}
			accesses++
			w := st.Op == spt.Write
			for _, a := range hist[st.Loc] {
				if !(w || a.write) || a.u == u || o.Relate(a.u, u) != spt.Parallel {
					continue
				}
				kind := WriteWrite
				switch {
				case a.write && !w:
					kind = WriteRead
				case !a.write && w:
					kind = ReadWrite
				}
				races = append(races, Race{Loc: st.Loc, Kind: kind, First: a.u, Second: u})
			}
			hist[st.Loc] = append(hist[st.Loc], access{u, w})
		}
	}
	return buildReport(races, accesses, 0)
}
