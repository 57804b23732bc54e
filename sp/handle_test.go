package sp

import (
	"math/rand"
	"testing"

	"repro/internal/spt"
)

// TestHandleContract holds every backend's per-thread handle to the
// contract the Monitor relies on: bound to leaf v's thread, Orders
// reports whether leaf u's thread is before it in the English and in
// the Hebrew order exactly as the parse tree's static indices order the
// two leaves, and the relation read off those two bits is the one the
// LCA oracle finds. Each random program is replayed on each backend in
// the regime its BackendInfo allows:
//
//   - any-order backends, serially and with ReplayParallel on four
//     workers, then every pair of distinct leaf threads;
//   - the other FullQueries backends, serially, then every pair;
//   - sp-bags, serially, each leaf's handle while its thread is the
//     current one, against every earlier leaf.
//
// Leaves in series may share a thread; a thread's leaves are
// contiguous in both orders, so any of them stands for it.
func TestHandleContract(t *testing.T) {
	for _, info := range Backends() {
		t.Run(info.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20261019))
			for trial := range 16 {
				cfg := spt.DefaultGenConfig(2 + rng.Intn(60))
				cfg.PProb = []float64{0.25, 0.5, 0.85}[trial%3]
				tr := spt.Generate(cfg, rng)
				if !info.FullQueries {
					m := MustMonitor(WithBackend(info.Name), WithRaceDetection(false))
					check := handleChecker(t, m, tr)
					var done []*spt.Node
					var doneIDs []ThreadID
					ReplayObserved(tr, m, func(v *spt.Node, tv ThreadID) {
						for i, u := range done {
							check(u, doneIDs[i], v, tv)
						}
						done, doneIDs = append(done, v), append(doneIDs, tv)
					})
					m.Report()
					continue
				}
				for _, parallel := range []bool{false, true} {
					if parallel && !info.AnyOrder {
						continue
					}
					m := MustMonitor(WithBackend(info.Name), WithRaceDetection(false))
					var ids ReplayIDs
					if parallel {
						ids = ReplayParallel(tr, m, 4)
					} else {
						ids = Replay(tr, m)
					}
					check := handleChecker(t, m, tr)
					for _, v := range tr.Threads() {
						for _, u := range tr.Threads() {
							check(u, ids.Leaf(u), v, ids.Leaf(v))
						}
					}
					m.Report()
				}
			}
		})
	}
}

// handleChecker returns a check that asks the handle of thread tv,
// which ran leaf v, for the orders of thread tu, which ran leaf u, and
// compares them with tr's static orders and its LCA oracle. A pair of
// leaves run by one thread is skipped.
func handleChecker(t *testing.T, m *Monitor, tr *spt.Tree) func(u *spt.Node, tu ThreadID, v *spt.Node, tv ThreadID) {
	oracle := spt.NewOracle(tr)
	eng, heb := tr.EnglishHebrewIndex()
	return func(u *spt.Node, tu ThreadID, v *spt.Node, tv ThreadID) {
		t.Helper()
		if tu == tv {
			return
		}
		english, hebrew := m.state(tv).Orders(tu)
		if want := eng[u.ID] < eng[v.ID]; english != want {
			t.Fatalf("%s: t%d's handle: t%d English-before = %v, want %v (%s, %s)",
				m.info.Name, tv, tu, english, want, u, v)
		}
		if want := heb[u.ID] < heb[v.ID]; hebrew != want {
			t.Fatalf("%s: t%d's handle: t%d Hebrew-before = %v, want %v (%s, %s)",
				m.info.Name, tv, tu, hebrew, want, u, v)
		}
		if got, want := relationOf(english, hebrew).String(), oracle.Relate(u, v).String(); got != want {
			t.Fatalf("%s: t%d's handle: orders (%v, %v) read as %s, oracle relates %s to %s as %s",
				m.info.Name, tv, english, hebrew, got, u, v, want)
		}
	}
}
