package sp_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// raceSignature reduces a report to its schedule-independent content:
// the sorted set of raced locations. Which pair of accessors is blamed
// for a racy location (and the access kind of the blamed pair) depends
// on the interleaving, but the Nondeterminator guarantee — a location
// is flagged iff some race exists on it — does not.
func raceSignature(rep sp.Report) []uint64 {
	return append([]uint64(nil), rep.Locations...)
}

// checkLocations holds a report's Locations to their definition: the
// sorted distinct addresses of its Races.
func checkLocations(t *testing.T, what string, rep sp.Report) {
	t.Helper()
	var want []uint64
	for _, r := range rep.Races {
		want = append(want, r.Addr)
	}
	slices.Sort(want)
	if want = slices.Compact(want); !slices.Equal(rep.Locations, want) {
		t.Fatalf("%s: Locations %v, want the distinct race addresses %v", what, rep.Locations, want)
	}
}

// TestStressScenariosConcurrent hammers one live sp-hybrid monitor per
// workload scenario with NumCPU×4 goroutines (ReplayParallel forks a
// real goroutine at every P-node while slots are free) and asserts the
// race-report signature is stable against the serial sp-order oracle.
// Run under -race (the CI stress job does, twice) this is also the
// no-detector-internal-races proof for the lock-free monitor.
func TestStressScenariosConcurrent(t *testing.T) {
	goroutines := 4 * runtime.NumCPU()
	for _, sc := range workload.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			tree := sc.Build(128, 7)
			oracle := sp.MustMonitor(sp.WithBackend("sp-order"))
			sp.Replay(tree, oracle)
			want := raceSignature(oracle.Report())

			for trial := 0; trial < 3; trial++ {
				m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithWorkers(goroutines))
				sp.ReplayParallel(tree, m, goroutines)
				rep := m.Report()
				if got := raceSignature(rep); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: concurrent signature %v, serial oracle %v", trial, got, want)
				}
			}
		})
	}
}

// TestStressFlatHammer is the raw shard-boundary hammer: NumCPU×4
// monitored goroutines on one live monitor, all touching one shared
// racy address, a band of race-free adjacent addresses (which hash to
// different shards), and private addresses, with SP queries issued
// mid-flight. The assertions: exactly the planted address races, every
// worker is parallel to every other, and the access counters are
// exact (no event lost on the lock-free path).
func TestStressFlatHammer(t *testing.T) {
	g := 4 * runtime.NumCPU()
	const per = 400
	const racy = uint64(1 << 20)
	m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithWorkers(g))
	cur := m.Thread(m.Main())
	// Adjacent shared addresses 0..63, written once by main: reads of
	// them below are race-free however they interleave.
	for a := uint64(0); a < 64; a++ {
		cur.Write(a)
	}
	workers := make([]sp.Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int, th sp.Thread) {
			defer wg.Done()
			priv := uint64(1<<30) + uint64(i)<<10
			for k := 0; k < per; k++ {
				th.Read(uint64(k % 64))      // shared, race-free
				th.Write(priv + uint64(k%8)) // private, race-free
				if k%16 == i%16 {
					th.Write(racy) // the one planted race
				}
				if k%64 == 0 {
					if rel := th.Relation(m.Main()); rel != sp.Precedes {
						t.Errorf("worker %d: main vs self = %v, want precedes", i, rel)
						return
					}
				}
			}
		}(i, workers[i])
	}
	wg.Wait()
	for i := range workers {
		for j := i + 1; j < len(workers); j++ {
			if !m.Parallel(workers[i].ID(), workers[j].ID()) {
				t.Fatalf("workers %d and %d not parallel", i, j)
			}
		}
	}
	for i := g - 1; i >= 0; i-- {
		cur = workers[i].Join(cur)
	}
	cur.Read(racy) // serial after the join: no extra race
	rep := m.Report()
	if want := []uint64{racy}; !reflect.DeepEqual(rep.Locations, want) {
		t.Fatalf("raced locations %v, want %v", rep.Locations, want)
	}
	// g forks create 2g threads, g joins create g continuations, +main.
	if rep.Threads != int64(3*g+1) || rep.Forks != int64(g) || rep.Joins != int64(g) {
		t.Fatalf("structural counters wrong: %+v", rep)
	}
	if wantAcc := int64(64+1) + int64(g)*int64(per)*2 + countPlanted(g, per); rep.Accesses != wantAcc {
		t.Fatalf("accesses = %d, want %d", rep.Accesses, wantAcc)
	}
}

// countPlanted counts the racy writes TestStressFlatHammer issues.
func countPlanted(g, per int) int64 {
	var n int64
	for i := 0; i < g; i++ {
		for k := 0; k < per; k++ {
			if k%16 == i%16 {
				n++
			}
		}
	}
	return n
}

// TestStressLocksetConcurrent interleaves Acquire/Release (structural
// events, global mutex) with accesses under the ALL-SETS protocol on a
// live concurrent run: a common mutex must suppress the race on the
// protected cell however the goroutines interleave, while the
// unprotected cell always races — lockset correctness across the
// structural/access boundary.
func TestStressLocksetConcurrent(t *testing.T) {
	g := 4 * runtime.NumCPU()
	for trial := 0; trial < 3; trial++ {
		m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithLockAwareness(true), sp.WithWorkers(g))
		cur := m.Thread(m.Main())
		workers := make([]sp.Thread, g)
		for i := range workers {
			workers[i], cur = cur.Fork()
		}
		const protected, unprotected = uint64(5), uint64(6)
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func(i int, th sp.Thread) {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					th.Acquire(1)
					th.Read(protected)
					th.Write(protected)
					th.Release(1)
				}
				th.Write(unprotected)
			}(i, workers[i])
		}
		wg.Wait()
		for i := g - 1; i >= 0; i-- {
			cur = workers[i].Join(cur)
		}
		rep := m.Report()
		if !reflect.DeepEqual(rep.Locations, []uint64{unprotected}) {
			t.Fatalf("trial %d: raced locations %v, want only x%d", trial, rep.Locations, unprotected)
		}
		for _, r := range rep.Races {
			if r.Addr == protected {
				t.Fatalf("trial %d: lock-protected cell raced: %v", trial, r)
			}
		}
	}
}

// TestConcurrentTraceRoundTrip records live concurrent runs on both
// Synchronized backends, with and without lock-awareness, and proves
// each recording is a valid linearization: replay must succeed through
// the serial-tolerant any-order sp-order AND through the recording
// backend again, with both replays agreeing with the live run on
// accesses, structure, and raced locations.
func TestConcurrentTraceRoundTrip(t *testing.T) {
	goroutines := 4 * runtime.NumCPU()
	for _, backend := range []string{"sp-hybrid", "depa"} {
		for _, lockAware := range []bool{false, true} {
			for _, scName := range []string{"forkjoin", "readmostly", "lockheavy"} {
				sc, ok := workload.ScenarioByName(scName)
				if !ok {
					t.Fatalf("scenario %q missing", scName)
				}
				name := fmt.Sprintf("%s/lockaware=%v/%s", backend, lockAware, scName)
				t.Run(name, func(t *testing.T) {
					tree := sc.Build(96, 3)
					var buf bytes.Buffer
					m := sp.MustMonitor(sp.WithBackend(backend), sp.WithLockAwareness(lockAware),
						sp.WithWorkers(goroutines), sp.WithTrace(&buf))
					sp.ReplayParallel(tree, m, goroutines)
					live := m.Report()
					if err := m.TraceErr(); err != nil {
						t.Fatalf("TraceErr: %v", err)
					}
					for _, rb := range []string{"sp-order", backend} {
						rep, err := trace.ReplayBackend(buf.Bytes(), rb, sp.WithLockAwareness(lockAware))
						if err != nil {
							t.Fatalf("replaying concurrent trace through %s: %v", rb, err)
						}
						if rep.Accesses != live.Accesses || rep.Forks != live.Forks ||
							rep.Joins != live.Joins || rep.Threads != live.Threads {
							t.Fatalf("%s replay counters %+v diverge from live %+v", rb, rep, live)
						}
						if !reflect.DeepEqual(rep.Locations, live.Locations) {
							t.Fatalf("%s replay locations %v, live %v", rb, rep.Locations, live.Locations)
						}
					}
				})
			}
		}
	}
}
