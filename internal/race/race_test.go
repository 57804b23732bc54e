package race

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
)

// detectors runs each scheduler-coupled detector on a canonical tree.
var detectors = []struct {
	name string
	run  func(t *spt.Tree, workers int, seed int64) Report
}{
	{"hybrid", func(t *spt.Tree, workers int, seed int64) Report {
		rep, _ := DetectParallel(t, workers, seed, true)
		return rep
	}},
	{"naive", func(t *spt.Tree, workers int, seed int64) Report {
		rep, _ := DetectParallelNaive(t, workers, seed, true)
		return rep
	}},
}

func canonical(t *spt.Tree) *spt.Tree {
	c, _ := spt.Canonicalize(t)
	return c
}

// detectSerial is the serial detection path: tree t replayed in English
// order through a fresh sp.Monitor on the named backend.
func detectSerial(t *spt.Tree, backend string, lockAware bool) sp.Report {
	m := sp.MustMonitor(sp.WithBackend(backend), sp.WithLockAwareness(lockAware))
	sp.Replay(t, m)
	return m.Report()
}

// locations converts a monitor report's raced addresses to ints.
func locations(rep sp.Report) []int {
	out := make([]int, 0, len(rep.Locations))
	for _, l := range rep.Locations {
		out = append(out, int(l))
	}
	return out
}

// paperBackends names the four serial engines of the paper's evaluation.
var paperBackends = []string{"sp-order", "sp-bags", "english-hebrew", "offset-span"}

// TestBackendStrings checks that the paper's serial engines are
// registered under their names and that a report names its backend.
func TestBackendStrings(t *testing.T) {
	for _, name := range paperBackends {
		if _, info, err := sp.NewMaintainer(name); err != nil || info.Name != name {
			t.Fatalf("%s: registry lookup = %+v, %v", name, info, err)
		}
		if got := detectSerial(spt.PaperExample(), name, false).Backend; got != name {
			t.Fatalf("report backend = %q, want %q", got, name)
		}
	}
}

func TestAccessKindStrings(t *testing.T) {
	if WriteWrite.String() != "write-write" || WriteRead.String() != "write-read" ||
		ReadWrite.String() != "read-write" {
		t.Fatal("AccessKind strings wrong")
	}
}

// TestObviousRace: two parallel writers to one location.
func TestObviousRace(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.W(0)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.W(0)}
	tr := spt.MustTree(spt.NewP(a, b))
	for _, backend := range sp.BackendNames() {
		rep := detectSerial(tr, backend, false)
		if len(rep.Races) != 1 {
			t.Fatalf("%s: races = %d, want 1", backend, len(rep.Races))
		}
		r := rep.Races[0]
		if r.Kind != WriteWrite || r.Addr != 0 || r.FirstSite != a || r.SecondSite != b {
			t.Fatalf("%s: wrong race %v", backend, r)
		}
	}
}

// TestNoRaceWhenSerial: same accesses composed in series.
func TestNoRaceWhenSerial(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.W(0)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.W(0), spt.R(0)}
	tr := spt.MustTree(spt.NewS(a, b))
	for _, backend := range sp.BackendNames() {
		if rep := detectSerial(tr, backend, false); len(rep.Races) != 0 {
			t.Fatalf("%s: unexpected races %v", backend, rep.Races)
		}
	}
}

func TestReadSharingIsSafe(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.R(0)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.R(0)}
	tr := spt.MustTree(spt.NewP(a, b))
	for _, backend := range sp.BackendNames() {
		if rep := detectSerial(tr, backend, false); len(rep.Races) != 0 {
			t.Fatalf("%s: read sharing flagged: %v", backend, rep.Races)
		}
	}
}

func TestWriteReadAndReadWriteKinds(t *testing.T) {
	// writer ∥ reader: write happens first in serial replay order.
	w := spt.NewLeaf("w", 1)
	w.Steps = []spt.Step{spt.W(0)}
	r := spt.NewLeaf("r", 1)
	r.Steps = []spt.Step{spt.R(0)}
	tr := spt.MustTree(spt.NewP(w, r))
	// reader first, then parallel writer.
	r2 := spt.NewLeaf("r2", 1)
	r2.Steps = []spt.Step{spt.R(0)}
	w2 := spt.NewLeaf("w2", 1)
	w2.Steps = []spt.Step{spt.W(0)}
	tr2 := spt.MustTree(spt.NewP(r2, w2))
	for _, backend := range sp.BackendNames() {
		rep := detectSerial(tr, backend, false)
		if len(rep.Races) != 1 || rep.Races[0].Kind != WriteRead {
			t.Fatalf("%s: want one write-read race, got %v", backend, rep.Races)
		}
		rep2 := detectSerial(tr2, backend, false)
		if len(rep2.Races) != 1 || rep2.Races[0].Kind != ReadWrite {
			t.Fatalf("%s: want one read-write race, got %v", backend, rep2.Races)
		}
	}
}

// TestVectorAccumulate pins the intro workload: the correct version is
// race-free, the buggy version races on every output cell.
func TestVectorAccumulate(t *testing.T) {
	good := canonical(workload.VectorAccumulate(8, false))
	bad := canonical(workload.VectorAccumulate(8, true))
	for _, d := range detectors {
		if rep := d.run(good, 2, 1); len(rep.Races) != 0 {
			t.Fatalf("%s: correct program flagged: %v", d.name, rep.Races)
		}
		if rep := d.run(bad, 2, 1); len(rep.Locations) != 8 {
			t.Fatalf("%s: raced locations = %v, want all 8 outputs", d.name, rep.Locations)
		}
	}
}

// TestDetectorsMatchFullHistory is the core soundness/completeness
// property (the Feng–Leiserson guarantee): the set of locations flagged
// by each detector equals the set of locations with at least one true
// race, on random programs.
func TestDetectorsMatchFullHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		cfg := spt.DefaultGenConfig(2 + rng.Intn(40))
		cfg.PProb = []float64{0.3, 0.6, 0.9}[trial%3]
		cfg.Steps = 6
		cfg.Locations = 8
		cfg.WriteFrac = 0.4
		tr := canonical(spt.Generate(cfg, rng))
		truth := FullHistory(tr)
		for _, d := range detectors {
			rep := d.run(tr, 2, int64(trial))
			if !reflect.DeepEqual(rep.Locations, truth.Locations) {
				t.Fatalf("trial %d %s: flagged %v, truth %v",
					trial, d.name, rep.Locations, truth.Locations)
			}
		}
	}
}

func TestQuickDetectorLocationSets(t *testing.T) {
	f := func(seed int64, n uint8, pp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := spt.DefaultGenConfig(int(n)%30 + 2)
		cfg.PProb = float64(pp%101) / 100
		cfg.Steps = 4
		cfg.Locations = 6
		cfg.WriteFrac = 0.5
		tr := canonical(spt.Generate(cfg, rng))
		truth := FullHistory(tr).Locations
		for _, d := range detectors {
			if !reflect.DeepEqual(d.run(tr, 2, seed).Locations, truth) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlantedRacesFoundExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		p := workload.PlantRaces(workload.DefaultPlantConfig(), rng)
		for _, backend := range sp.BackendNames() {
			got := locations(detectSerial(p.Tree, backend, false))
			if !reflect.DeepEqual(got, p.RacyLocs) {
				t.Fatalf("trial %d %s: flagged %v, planted %v",
					trial, backend, got, p.RacyLocs)
			}
		}
	}
}

func TestLockAwareSuppressesProtectedRaces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, protected, unprotected := workload.LockProtected(6, rng)
	for _, backend := range sp.BackendNames() {
		if got := locations(detectSerial(tr, backend, true)); !reflect.DeepEqual(got, []int{unprotected}) {
			t.Fatalf("%s: lock-aware flagged %v, want only x%d", backend, got, unprotected)
		}
		// The pure determinacy detector flags both locations.
		if got := locations(detectSerial(tr, backend, false)); len(got) != 2 || got[0] != protected {
			t.Fatalf("%s: determinacy detector flagged %v, want both locations", backend, got)
		}
	}
}

func TestLockAwarePartialOverlap(t *testing.T) {
	// Two parallel writers holding different locks: still a race.
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.Acq(1), spt.W(0), spt.Rel(1)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.Acq(2), spt.W(0), spt.Rel(2)}
	tr := spt.MustTree(spt.NewP(a, b))
	// Sharing one common lock suppresses the race.
	c := spt.NewLeaf("c", 1)
	c.Steps = []spt.Step{spt.Acq(1), spt.Acq(2), spt.W(0), spt.Rel(2), spt.Rel(1)}
	d := spt.NewLeaf("d", 1)
	d.Steps = []spt.Step{spt.Acq(1), spt.W(0), spt.Rel(1)}
	tr2 := spt.MustTree(spt.NewP(c, d))
	for _, backend := range sp.BackendNames() {
		if rep := detectSerial(tr, backend, true); len(rep.Races) != 1 {
			t.Fatalf("%s: disjoint locksets must race: %v", backend, rep.Races)
		}
		if rep := detectSerial(tr2, backend, true); len(rep.Races) != 0 {
			t.Fatalf("%s: common lock must suppress the race: %v", backend, rep.Races)
		}
	}
}

func TestLockAwareReleaseUnheldPanics(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.Rel(3)}
	tr := spt.MustTree(spt.NewS(a, spt.NewLeaf("b", 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	detectSerial(tr, "sp-order", true)
}

// TestLockSetOps checks the lock-set operations, on literal sets and on
// the sets a lock-aware replay attaches to a race.
func TestLockSetOps(t *testing.T) {
	a := sp.LockSet{1, 3, 5}
	b := sp.LockSet{2, 4}
	c := sp.LockSet{3}
	if !a.Disjoint(b) || a.Disjoint(c) {
		t.Fatal("Disjoint wrong")
	}
	if !a.Equal(sp.LockSet{1, 3, 5}) || a.Equal(b) {
		t.Fatal("Equal wrong")
	}
	if a.String() != "{m1,m3,m5}" || sp.LockSet(nil).String() != "{}" {
		t.Fatalf("String wrong: %q", a.String())
	}

	l := spt.NewLeaf("l", 1)
	l.Steps = []spt.Step{spt.Acq(1), spt.Acq(3), spt.W(0), spt.Rel(3), spt.Rel(1)}
	r := spt.NewLeaf("r", 1)
	r.Steps = []spt.Step{spt.Acq(2), spt.W(0), spt.Rel(2)}
	rep := detectSerial(spt.MustTree(spt.NewP(l, r)), "sp-order", true)
	if len(rep.Races) != 1 {
		t.Fatalf("races = %v, want one", rep.Races)
	}
	first, second := rep.Races[0].FirstLocks, rep.Races[0].SecondLocks
	if !first.Equal(sp.LockSet{1, 3}) || !second.Equal(sp.LockSet{2}) || !first.Disjoint(second) {
		t.Fatalf("race lock sets %v and %v, want {m1,m3} and {m2}", first, second)
	}
}

func TestParallelDetectorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 6; trial++ {
		p := workload.PlantRaces(workload.DefaultPlantConfig(), rng)
		canon := canonical(p.Tree)
		for _, workers := range []int{1, 2, 4} {
			rep, _ := DetectParallel(canon, workers, int64(trial), true)
			if !reflect.DeepEqual(rep.Locations, p.RacyLocs) {
				t.Fatalf("trial %d P=%d: flagged %v, planted %v",
					trial, workers, rep.Locations, p.RacyLocs)
			}
		}
	}
}

func TestParallelDetectorUnderSteals(t *testing.T) {
	// Force a workload big enough to split and verify ground truth
	// still holds.
	rng := rand.New(rand.NewSource(9))
	cfg := workload.DefaultPlantConfig()
	cfg.Threads = 256
	cfg.RacyLocations = 16
	cfg.SafeLocations = 16
	for seed := int64(0); seed < 10; seed++ {
		p := workload.PlantRaces(cfg, rng)
		rep, stats := DetectParallel(canonical(p.Tree), 4, seed, true)
		if !reflect.DeepEqual(rep.Locations, p.RacyLocs) {
			t.Fatalf("seed %d: flagged %v, planted %v", seed, rep.Locations, p.RacyLocs)
		}
		if stats.Splits > 0 {
			return // at least one run exercised real splits
		}
	}
	t.Skip("no splits observed; single-CPU scheduling too serial")
}

func TestReportCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := canonical(workload.FibWithAccesses(8, 4, 16, true, rng))
	wantAccesses := int64(0)
	for _, l := range tr.Threads() {
		wantAccesses += int64(len(l.Steps))
	}
	for _, d := range detectors {
		rep := d.run(tr, 2, 1)
		if rep.Accesses != wantAccesses {
			t.Fatalf("%s: accesses = %d, want %d", d.name, rep.Accesses, wantAccesses)
		}
		if rep.Queries == 0 {
			t.Fatalf("%s: queries not counted", d.name)
		}
	}
}

func TestFibPrivateAccessesRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := canonical(workload.FibWithAccesses(9, 3, 0, false, rng))
	for _, d := range detectors {
		if rep := d.run(tr, 2, 1); len(rep.Races) != 0 {
			t.Fatalf("%s: private accesses raced: %v", d.name, rep.Races)
		}
	}
}

func TestRaceString(t *testing.T) {
	a, b := spt.NewLeaf("a", 1), spt.NewLeaf("b", 1)
	r := Race{Loc: 7, Kind: WriteWrite, First: a, Second: b}
	if r.String() != "write-write race on x7 between a and b" {
		t.Fatalf("Race.String() = %q", r.String())
	}
}

func TestNaiveParallelDetectorMatchesPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 5; trial++ {
		p := workload.PlantRaces(workload.DefaultPlantConfig(), rng)
		canon := canonical(p.Tree)
		for _, workers := range []int{1, 4} {
			rep, locks := DetectParallelNaive(canon, workers, int64(trial), true)
			if !reflect.DeepEqual(rep.Locations, p.RacyLocs) {
				t.Fatalf("trial %d P=%d: flagged %v, planted %v",
					trial, workers, rep.Locations, p.RacyLocs)
			}
			if locks == 0 {
				t.Fatal("naive detector must acquire the global lock")
			}
		}
	}
}

func TestNaiveAndHybridAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	cfg := workload.DefaultPlantConfig()
	cfg.Threads = 128
	p := workload.PlantRaces(cfg, rng)
	canon := canonical(p.Tree)
	naive, _ := DetectParallelNaive(canon, 4, 1, true)
	hybrid, _ := DetectParallel(canon, 4, 1, true)
	if !reflect.DeepEqual(naive.Locations, hybrid.Locations) {
		t.Fatalf("naive %v != hybrid %v", naive.Locations, hybrid.Locations)
	}
}
