package sp_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/spt"
	"repro/sp"
)

// expectRelation checks one monitor answer against the LCA oracle.
// Distinct parse-tree leaves composed in series may share one event
// thread (a maximal serial block), in which case the monitor reports
// Same and the oracle must agree the leaves are not parallel.
func expectRelation(t *testing.T, backend string, m *sp.Monitor, o *spt.Oracle,
	u, v *spt.Node, tu, tv sp.ThreadID) {
	t.Helper()
	want := o.Relate(u, v)
	if tu == tv {
		if want == spt.Parallel {
			t.Fatalf("%s: leaves %s,%s share thread t%d but oracle says parallel", backend, u, v, tu)
		}
		if got := m.Relation(tu, tv); got != sp.Same {
			t.Fatalf("%s: Relation(t%d,t%d) = %v, want same", backend, tu, tv, got)
		}
		return
	}
	got := m.Relation(tu, tv)
	switch want {
	case spt.Parallel:
		if got != sp.Parallel {
			t.Fatalf("%s: %s ∥ %s per oracle, monitor says %v", backend, u, v, got)
		}
	case spt.Precedes:
		if got != sp.Precedes {
			t.Fatalf("%s: %s ≺ %s per oracle, monitor says %v", backend, u, v, got)
		}
	case spt.Follows:
		if got != sp.Follows {
			t.Fatalf("%s: %s ≻ %s per oracle, monitor says %v", backend, u, v, got)
		}
	default:
		t.Fatalf("%s: unexpected oracle relation %v for leaves", backend, want)
	}
}

func locsAsInts(locs []uint64) []int {
	out := make([]int, 0, len(locs))
	for _, l := range locs {
		out = append(out, int(l))
	}
	return out
}

// TestCrossBackendOracleEquivalence replays randomly generated programs
// through EVERY registered backend via the event API and checks all
// answers against the ground-truth LCA oracle, and the detected race
// locations against the quadratic full-history checker. Queries are
// issued on the fly — each leaf is compared against every previously
// executed leaf while it is the current thread, which is the query form
// all backends support — and, for full-query backends, again between
// arbitrary retired pairs after the run.
func TestCrossBackendOracleEquivalence(t *testing.T) {
	for _, info := range sp.Backends() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1701))
			for trial := 0; trial < 12; trial++ {
				cfg := spt.DefaultGenConfig(2 + rng.Intn(45))
				cfg.PProb = []float64{0.25, 0.5, 0.85}[trial%3]
				cfg.Steps = 5
				cfg.Locations = 8
				cfg.WriteFrac = 0.4
				tr := spt.Generate(cfg, rng)
				oracle := spt.NewOracle(tr)
				m, err := sp.NewMonitor(sp.WithBackend(info.Name))
				if err != nil {
					t.Fatal(err)
				}
				var replayed []*spt.Node
				seen := map[*spt.Node]sp.ThreadID{}
				ids := sp.ReplayObserved(tr, m, func(leaf *spt.Node, id sp.ThreadID) {
					for _, prev := range replayed {
						expectRelation(t, info.Name, m, oracle, prev, leaf, seen[prev], id)
					}
					seen[leaf] = id
					replayed = append(replayed, leaf)
				})
				if info.FullQueries {
					leaves := tr.Threads()
					for i := 0; i < len(leaves); i++ {
						for j := i + 1; j < len(leaves); j++ {
							expectRelation(t, info.Name, m, oracle,
								leaves[i], leaves[j], ids.Leaf(leaves[i]), ids.Leaf(leaves[j]))
							expectRelation(t, info.Name, m, oracle,
								leaves[j], leaves[i], ids.Leaf(leaves[j]), ids.Leaf(leaves[i]))
						}
					}
				}
				rep := m.Report()
				checkLocations(t, info.Name, rep)
				truth := race.FullHistory(tr).Locations
				if !reflect.DeepEqual(locsAsInts(rep.Locations), truth) {
					t.Fatalf("trial %d: %s flagged %v, full history %v",
						trial, info.Name, rep.Locations, truth)
				}
				if rep.Backend != info.Name {
					t.Fatalf("report backend %q, want %q", rep.Backend, info.Name)
				}
			}
		})
	}
}

// TestAnyOrderBackendsUnderConcurrentReplay drives the backends that
// accept arbitrary event orders — sp-order (Monitor-serialized) and the
// internally synchronized sp-hybrid — with ReplayParallel, which forks
// real goroutines at P-nodes, then checks every pair of event threads
// against the oracle and the race locations against full history. Run
// under `go test -race` this also exercises the concurrent global tier
// under the Go race detector.
func TestAnyOrderBackendsUnderConcurrentReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, info := range sp.Backends() {
		if !info.AnyOrder {
			continue
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				cfg := spt.DefaultGenConfig(40 + rng.Intn(200))
				cfg.PProb = 0.6
				cfg.Steps = 4
				cfg.Locations = 12
				cfg.WriteFrac = 0.4
				tr := spt.Generate(cfg, rng)
				oracle := spt.NewOracle(tr)
				m, err := sp.NewMonitor(sp.WithBackend(info.Name), sp.WithWorkers(8))
				if err != nil {
					t.Fatal(err)
				}
				ids := sp.ReplayParallel(tr, m, 8)
				leaves := tr.Threads()
				for i := 0; i < len(leaves); i++ {
					for k := 1; k <= 8 && i+k < len(leaves); k++ {
						u, v := leaves[i], leaves[i+k]
						expectRelation(t, info.Name, m, oracle, u, v, ids.Leaf(u), ids.Leaf(v))
					}
				}
				rep := m.Report()
				truth := race.FullHistory(tr).Locations
				if !reflect.DeepEqual(locsAsInts(rep.Locations), truth) {
					t.Fatalf("trial %d: %s flagged %v, full history %v",
						trial, info.Name, rep.Locations, truth)
				}
			}
		})
	}
}

// TestSPHybridBackendRegisteredAndConcurrent pins the acceptance
// criterion that the parallel engine is reachable through the registry
// with concurrent-event capability.
func TestSPHybridBackendRegisteredAndConcurrent(t *testing.T) {
	for _, info := range sp.Backends() {
		if info.Name == "sp-hybrid" {
			if !info.Synchronized || !info.AnyOrder || !info.FullQueries {
				t.Fatalf("sp-hybrid capabilities wrong: %+v", info)
			}
			return
		}
	}
	t.Fatal("sp-hybrid not registered")
}
