package sp

import (
	"math/rand"
	"testing"

	"repro/internal/spt"
)

// TestHandleContract holds every any-order backend's per-thread handle
// to the contract the Monitor relies on: bound to any begun thread v,
// it answers PrecedesCurrent and ParallelCurrent as the LCA oracle
// relates the two leaves, and EnglishBeforeCurrent and
// HebrewBeforeCurrent exactly as the parse tree's static English and
// Hebrew indices order them, for every other begun thread u, whether
// or not v is the current thread. Each random program is replayed
// serially and with ReplayParallel on four workers. Leaves in series
// may share a thread; a thread's leaves are contiguous in both orders,
// so any of them stands for it.
func TestHandleContract(t *testing.T) {
	for _, info := range Backends() {
		if !info.AnyOrder {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20261019))
			for trial := range 16 {
				cfg := spt.DefaultGenConfig(2 + rng.Intn(60))
				cfg.PProb = []float64{0.25, 0.5, 0.85}[trial%3]
				tr := spt.Generate(cfg, rng)
				for _, parallel := range []bool{false, true} {
					m := MustMonitor(WithBackend(info.Name), WithRaceDetection(false))
					var ids ReplayIDs
					if parallel {
						ids = ReplayParallel(tr, m, 4)
					} else {
						ids = Replay(tr, m)
					}
					checkHandles(t, m, tr, ids)
					m.Report()
				}
			}
		})
	}
}

// checkHandles compares the handle of every leaf thread v against
// every other leaf thread u with the oracle and the static orders.
func checkHandles(t *testing.T, m *Monitor, tr *spt.Tree, ids ReplayIDs) {
	t.Helper()
	oracle := spt.NewOracle(tr)
	eng, heb := tr.EnglishHebrewIndex()
	leaves := tr.Threads()
	for _, v := range leaves {
		tv := ids.Leaf(v)
		h := m.state(tv).hb.inner
		for _, u := range leaves {
			tu := ids.Leaf(u)
			if tu == tv {
				continue
			}
			rel := oracle.Relate(u, v)
			if got, want := h.PrecedesCurrent(tu), rel == spt.Precedes; got != want {
				t.Fatalf("%s: t%d's handle: PrecedesCurrent(t%d) = %v, oracle relates %s to %s as %v",
					m.info.Name, tv, tu, got, u, v, rel)
			}
			if got, want := h.ParallelCurrent(tu), rel == spt.Parallel; got != want {
				t.Fatalf("%s: t%d's handle: ParallelCurrent(t%d) = %v, oracle relates %s to %s as %v",
					m.info.Name, tv, tu, got, u, v, rel)
			}
			if got, want := h.EnglishBeforeCurrent(tu), eng[u.ID] < eng[v.ID]; got != want {
				t.Fatalf("%s: t%d's handle: EnglishBeforeCurrent(t%d) = %v, want %v (%s, %s)",
					m.info.Name, tv, tu, got, want, u, v)
			}
			if got, want := h.HebrewBeforeCurrent(tu), heb[u.ID] < heb[v.ID]; got != want {
				t.Fatalf("%s: t%d's handle: HebrewBeforeCurrent(t%d) = %v, want %v (%s, %s)",
					m.info.Name, tv, tu, got, want, u, v)
			}
		}
	}
}
