// Package repro holds the module's end-to-end tests: each one drives a
// whole pipeline of the paper from the outside, the way the cmd tools
// do — tree replay through the registered sp backends, the
// scheduler-coupled SP-hybrid and both parallel race detectors,
// lock-aware detection, and the dag view of a parse tree. The module's
// API lives in package sp; this directory has no non-test code.
package repro

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/race"
	"repro/internal/sphybrid"
	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
)

// replay runs tree t through a fresh monitor on the named backend.
func replay(t *spt.Tree, backend string, opts ...sp.Option) (*sp.Monitor, sp.ReplayIDs) {
	m := sp.MustMonitor(append([]sp.Option{sp.WithBackend(backend)}, opts...)...)
	return m, sp.Replay(t, m)
}

// ints converts a monitor report's raced addresses to ints.
func ints(locs []uint64) []int {
	out := make([]int, 0, len(locs))
	for _, l := range locs {
		out = append(out, int(l))
	}
	return out
}

// TestQuickstartFlow is the end-to-end path of the README: report a
// program's fork/join structure to an sp-order monitor, then query.
func TestQuickstartFlow(t *testing.T) {
	tr := spt.PaperExample()
	m, ids := replay(tr, "sp-order", sp.WithRaceDetection(false))
	threads := tr.Threads()
	u1, u4, u6 := ids.Leaf(threads[1]), ids.Leaf(threads[4]), ids.Leaf(threads[6])
	if !m.Precedes(u1, u4) {
		t.Fatal("u1 must precede u4 (paper Section 1)")
	}
	if !m.Parallel(u1, u6) {
		t.Fatal("u1 must be parallel to u6 (paper Section 1)")
	}
}

// TestFourBackendsAgreeOnRaces integrates the race planter, the paper's
// four serial SP-maintenance backends, and the monitor's detector.
func TestFourBackendsAgreeOnRaces(t *testing.T) {
	p := workload.PlantRaces(workload.DefaultPlantConfig(), rand.New(rand.NewSource(7)))
	for _, b := range []string{"sp-order", "sp-bags", "english-hebrew", "offset-span"} {
		m, _ := replay(p.Tree, b)
		if got := ints(m.Report().Locations); !reflect.DeepEqual(got, p.RacyLocs) {
			t.Fatalf("%s: locations %v, want %v", b, got, p.RacyLocs)
		}
	}
}

// TestParallelPipeline integrates canonicalization, the scheduler,
// SP-hybrid, and the parallel detector.
func TestParallelPipeline(t *testing.T) {
	p := workload.PlantRaces(workload.DefaultPlantConfig(), rand.New(rand.NewSource(13)))
	canon, _ := spt.Canonicalize(p.Tree)
	rep, stats := race.DetectParallel(canon, 4, 1, true)
	if !reflect.DeepEqual(rep.Locations, p.RacyLocs) {
		t.Fatalf("parallel: locations %v, want %v", rep.Locations, p.RacyLocs)
	}
	if stats.ThreadsExecuted != int64(canon.NumThreads()) {
		t.Fatal("not all threads executed")
	}
}

// TestHybridDirectUse exercises the SP-hybrid API directly, with
// in-thread queries checked against the LCA oracle.
func TestHybridDirectUse(t *testing.T) {
	tr := spt.FibTree(10, 1)
	o := spt.NewOracle(tr)
	var wrong int64
	var h *sphybrid.SPHybrid
	var prev *spt.Node // safe: single-worker run is sequential
	h = sphybrid.New(tr, func(w int, u *spt.Node) {
		if prev != nil && prev != u {
			rel := o.Relate(prev, u)
			if h.Precedes(prev, u) != (rel == spt.Precedes) {
				wrong++
			}
		}
		prev = u
		runtime.Gosched()
	})
	h.Run(1, 42)
	if wrong != 0 {
		t.Fatalf("%d wrong answers", wrong)
	}
}

// TestLockAwareFacade integrates the lock-aware (ALL-SETS) detector: a
// replayed program whose sharers all hold one mutex races only on its
// unlocked location.
func TestLockAwareFacade(t *testing.T) {
	tr, _, unprotected := workload.LockProtected(4, rand.New(rand.NewSource(3)))
	m, _ := replay(tr, "sp-order", sp.WithLockAwareness(true))
	if got := m.Report().Locations; len(got) != 1 || got[0] != uint64(unprotected) {
		t.Fatalf("lock-aware flagged %v", got)
	}
}

// TestDagViewIntegration round-trips the paper example through the dag.
func TestDagViewIntegration(t *testing.T) {
	tr := spt.PaperExample()
	back, err := tr.ToDag().ToTree()
	if err != nil {
		t.Fatal(err)
	}
	if back.Work() != tr.Work() || back.Span() != tr.Span() {
		t.Fatal("dag round trip changed work/span")
	}
}

// TestNaiveLockedBaseline integrates the Section 3 strawman: one sp-order
// maintainer behind a global lock, driven by the work-stealing scheduler,
// agrees with the full-history checker, and every SP query it answers
// costs a lock acquisition.
func TestNaiveLockedBaseline(t *testing.T) {
	tr, _ := spt.Canonicalize(workload.FibWithAccesses(8, 2, 16, true, rand.New(rand.NewSource(1))))
	truth := race.FullHistory(tr).Locations
	for _, workers := range []int{1, 4} {
		rep, locks := race.DetectParallelNaive(tr, workers, 1, true)
		if !reflect.DeepEqual(rep.Locations, truth) {
			t.Fatalf("P=%d: locations %v, want %v", workers, rep.Locations, truth)
		}
		if rep.Queries == 0 || locks < rep.Queries {
			t.Fatalf("P=%d: %d lock acquisitions for %d queries", workers, locks, rep.Queries)
		}
	}
}

// TestFullHistoryAgreesOnFacadeWorkloads ties the ground-truth checker to
// the buggy and fixed vector workload.
func TestFullHistoryAgreesOnFacadeWorkloads(t *testing.T) {
	bad := workload.VectorAccumulate(6, true)
	truth := race.FullHistory(bad)
	m, _ := replay(bad, "sp-order")
	if got := ints(m.Report().Locations); !reflect.DeepEqual(truth.Locations, got) {
		t.Fatalf("detector %v, truth %v", got, truth.Locations)
	}
	good := workload.VectorAccumulate(6, false)
	if len(race.FullHistory(good).Locations) != 0 {
		t.Fatal("correct program must be race-free")
	}
}
