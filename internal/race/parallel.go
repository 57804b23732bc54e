package race

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/shadow"
	"repro/internal/sphybrid"
	"repro/internal/spt"
)

// hybridRel adapts SP-hybrid queries against a fixed current thread. In
// the parallel detector the "current" thread is always the one executing
// on the calling worker, satisfying Theorem 9's precondition. It answers
// the English/Hebrew order queries exactly, which the two-reader shadow
// protocol (OnAccessOrdered) needs to stay complete under the genuinely
// concurrent access order a parallel replay produces.
type hybridRel struct {
	h   *sphybrid.SPHybrid
	cur *spt.Node
}

func (r *hybridRel) PrecedesCurrent(u *spt.Node) bool      { return r.h.Precedes(u, r.cur) }
func (r *hybridRel) ParallelCurrent(u *spt.Node) bool      { return r.h.Parallel(u, r.cur) }
func (r *hybridRel) EnglishBeforeCurrent(u *spt.Node) bool { return r.h.EnglishBefore(u, r.cur) }
func (r *hybridRel) HebrewBeforeCurrent(u *spt.Node) bool  { return r.h.HebrewBefore(u, r.cur) }

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
	sh := shadow.NewMemory[*spt.Node](64)
	var mu sync.Mutex
	var races []Race
	var accesses, queries int64

	var h *sphybrid.SPHybrid
	h = sphybrid.New(t, func(w int, u *spt.Node) {
		rel := &hybridRel{h: h, cur: u}
		for _, st := range u.Steps {
			switch st.Op {
			case spt.Read, spt.Write:
				atomic.AddInt64(&accesses, 1)
				var q int64
				found := sh.AccessOrdered(uint64(st.Loc), rel, u, nil, st.Op == spt.Write, &q)
				atomic.AddInt64(&queries, q)
				if found != nil {
					mu.Lock()
					races = append(races, Race{Loc: st.Loc, Kind: found.Kind, First: found.Prev, Second: u})
					mu.Unlock()
				}
			}
		}
		if yield {
			runtime.Gosched()
		}
	})
	stats := h.Run(workers, seed)
	return buildReport(races, accesses, queries), stats
}
