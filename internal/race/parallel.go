package race

import (
	"runtime"

	"repro/internal/shadow"
	"repro/internal/sphybrid"
	"repro/internal/spt"
)

// hybridRel adapts SP-hybrid queries against a fixed current thread. In
// the parallel detector the "current" thread is always the one executing
// on the calling worker, satisfying Theorem 9's precondition. It answers
// the English and Hebrew orders exactly, which the two-reader shadow
// protocol (OnAccessOrdered) needs to stay complete under the genuinely
// concurrent access order a parallel replay produces.
type hybridRel struct {
	h   *sphybrid.SPHybrid
	cur *spt.Node
}

func (r *hybridRel) ParallelCurrent(u *spt.Node) bool { return r.h.Parallel(u, r.cur) }

func (r *hybridRel) Orders(u *spt.Node) (english, hebrew bool) { return r.h.Orders(u, r.cur) }

// DetectParallel replays tree t under the work-stealing scheduler on the
// given number of workers, with the scheduler-coupled SP-hybrid
// maintaining SP relationships and a lock-striped shadow memory applying
// the Nondeterminator protocol (internal/shadow), and returns the report
// with the SP-hybrid run statistics. The tree must be canonical
// (spt.Canonicalize arbitrary trees first and detect on the canonical
// copy). yield inserts a scheduling yield after every thread, which
// single-CPU hosts need to exhibit steals.
//
// For live (non-replay) parallel monitoring, use sp.Monitor with the
// "sp-hybrid" backend instead; this entry point exists to reproduce the
// paper's scheduler-dependent statistics (steals, splits, query
// retries).
func DetectParallel(t *spt.Tree, workers int, seed int64, yield bool) (Report, sphybrid.Stats) {
	mem := shadow.NewMemory[*spt.Node, raceLog](64)
	var h *sphybrid.SPHybrid
	h = sphybrid.New(t, func(w int, u *spt.Node) {
		rel := &hybridRel{h: h, cur: u}
		for _, st := range u.Steps {
			switch st.Op {
			case spt.Read, spt.Write:
				sh := mem.Lock(uint64(st.Loc))
				if found, ok := sh.AccessOrdered(uint64(st.Loc), rel, u, nil, st.Op == spt.Write); ok {
					sh.X.races = append(sh.X.races, Race{Loc: st.Loc, Kind: found.Kind, First: found.Prev, Second: u})
				}
				sh.Unlock()
			}
		}
		if yield {
			runtime.Gosched()
		}
	})
	stats := h.Run(workers, seed)
	return shardReport(mem), stats
}
