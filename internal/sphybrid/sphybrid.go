// Package sphybrid implements the SP-hybrid parallel SP-maintenance
// algorithm (Bender, Fineman, Gilbert, Leiserson, SPAA 2004, Sections
// 3–7). SP-hybrid runs a fork-join program under a Cilk-style
// work-stealing scheduler (internal/sched) while maintaining, on the fly,
// the series-parallel relationship between any previously executed thread
// and any currently executing thread.
//
// The algorithm is two-tiered:
//
//   - The GLOBAL tier is a shared, concurrent SP-order structure over
//     TRACES (sets of threads executed on one processor between steals):
//     two order-maintenance lists (English and Hebrew) with a single
//     insertion lock and lock-free, timestamp-validated queries
//     (Section 4).
//
//   - The LOCAL tier is an SP-bags structure over the threads of each
//     trace, built on union-find with union by rank only, so that any
//     worker may concurrently FIND-TRACE while the owning worker unions
//     (Section 5).
//
// On every steal, the victim's trace U splits into five subtraces around
// the stolen P-node X (Section 5):
//
//	U1 = {u ∈ U : u ≺ X}            — the victim procedure's S-bag
//	U2 = {u ∈ U : u ∥ X, u ∉ desc(X)} — the victim procedure's P-bag
//	U3 = descendants of left(X)      — aliases U itself
//	U4 = descendants of right(X)     — the thief's new trace (empty)
//	U5 = {u ∈ U : X ≺ u}            — the post-join trace (empty)
//
// and the subtraces are inserted contiguously around U in the global
// orders: English ⟨U1,U2,U3,U4,U5⟩, Hebrew ⟨U1,U4,U3,U2,U5⟩ (Figure 12).
// The split moves two bags (two atomic pointer stores), so SPLIT is O(1).
//
// Queries follow Figure 9: if both threads are in the same trace, the
// local tier answers (S-bag ⇒ precedes, P-bag ⇒ parallel); otherwise the
// global tier compares the traces in both orders. As in the paper, one of
// the two queried threads must be currently executing (Theorem 9's
// precondition).
package sphybrid

import (
	"sync"
	"sync/atomic"

	"repro/internal/dsu"
	"repro/internal/om"
	"repro/internal/sched"
	"repro/internal/spt"
)

// Trace is a dynamic set of threads executed on a single processor
// between steals. Traces are ordered by the global tier; threads map to
// traces through the local tier's union-find.
type Trace struct {
	eng, heb *om.CItem
	id       int64
}

// ID returns a unique identifier for the trace (diagnostics only).
func (t *Trace) ID() int64 { return t.id }

// bagDesc is the payload stored at local-tier set roots: the bag's kind
// (S or P) and the trace the bag's threads belong to. The trace pointer is
// atomic because a split redirects a donated bag's descriptor to a new
// trace while other workers may be reading it through FIND-TRACE.
type bagDesc struct {
	isS   bool
	trace atomic.Pointer[Trace]
}

func newBagDesc(isS bool, t *Trace) *bagDesc {
	d := &bagDesc{isS: isS}
	d.trace.Store(t)
	return d
}

// frameData is the client payload attached to every scheduler frame: the
// frame's current trace and its S- and P-bags. Only the worker currently
// executing the frame's code touches these fields; remote workers reach
// the bags only through the union-find structure (reads only).
type frameData struct {
	trace      *Trace
	sRep, pRep *dsu.CNode // union-find representatives (nil when the bag is empty)
	sDesc      *bagDesc
	pDesc      *bagDesc
}

// ExecFunc is the body of a thread: it runs under the scheduler with the
// SP-hybrid structure live, and may query the structure (through the
// SPHybrid passed alongside) against previously executed threads. The
// worker argument identifies the executing worker.
type ExecFunc func(worker int, u *spt.Node)

// Stats aggregates SP-hybrid counters, aligned with the buckets of the
// paper's Theorem 10 accounting argument.
type Stats struct {
	sched.Stats
	// Splits counts trace splits (= successful steals).
	Splits int64
	// GlobalInserts counts order-maintenance items inserted into each
	// global order (4 per split; bucket B2).
	GlobalInserts int64
	// LocalUnions and LocalFinds count local-tier operations (bucket B3).
	LocalUnions, LocalFinds int64
	// QueryRetries counts failed lock-free global queries (bucket B5).
	QueryRetries int64
	// GlobalRebalances counts order-maintenance rebalances.
	GlobalRebalances int64
	// Queries counts SP-PRECEDES/SP-PARALLEL calls.
	Queries int64
	// Traces is the final number of traces (= 4·steals + 1).
	Traces int64
}

// SPHybrid maintains SP relationships during a parallel execution. Create
// one with New, then call Run.
type SPHybrid struct {
	tree *spt.Tree
	exec ExecFunc

	eng, heb *om.Concurrent
	// globalMu is the single global-tier insertion lock of Section 4
	// (the paper's ACQUIRE(lock)/RELEASE(lock) in Figure 8, lines
	// 20–23). Queries never take it.
	globalMu sync.Mutex

	// forest is the local tier: union by rank only, the variant the
	// paper analyzes (O(lg n) worst case per operation), so any worker
	// may FIND-TRACE while the owner unions.
	forest dsu.ConcurrentForest
	nodeOf []atomic.Pointer[dsu.CNode] // per parse-tree node ID

	nextTraceID atomic.Int64
	splits      atomic.Int64
	queries     atomic.Int64
	traces      atomic.Int64
}

// New prepares an SP-hybrid run over tree t (which must be a canonical
// Cilk parse tree; see spt.Canonicalize). exec is invoked for every
// thread as it executes; it may be nil.
func New(t *spt.Tree, exec ExecFunc) *SPHybrid {
	h := &SPHybrid{
		tree:   t,
		exec:   exec,
		nodeOf: make([]atomic.Pointer[dsu.CNode], t.Len()),
	}
	// Both global-tier lists serialize their insertions on the ONE
	// insertion lock of Section 4, so a steal's eight insertions (four
	// per order) batch under a single acquisition.
	h.eng = om.NewConcurrentShared(&h.globalMu)
	h.heb = om.NewConcurrentShared(&h.globalMu)
	return h
}

// newTraceItems wraps freshly inserted OM items as a trace.
func (h *SPHybrid) newTrace(eng, heb *om.CItem) *Trace {
	h.traces.Add(1)
	return &Trace{eng: eng, heb: heb, id: h.nextTraceID.Add(1)}
}

// Run executes the computation on the given number of workers and returns
// the run's statistics. seed drives the scheduler's victim selection.
func (h *SPHybrid) Run(workers int, seed int64) Stats {
	s := sched.New(workers, (*client)(h), seed)
	st := s.Run(h.tree)
	return Stats{
		Stats:            st,
		Splits:           h.splits.Load(),
		GlobalInserts:    h.splits.Load() * 4,
		LocalUnions:      h.forest.Unions.Load(),
		LocalFinds:       h.forest.Finds.Load(),
		QueryRetries:     h.eng.QueryRetries.Load() + h.heb.QueryRetries.Load(),
		GlobalRebalances: h.eng.Rebalances.Load() + h.heb.Rebalances.Load(),
		Queries:          h.queries.Load(),
		Traces:           h.traces.Load(),
	}
}

// client adapts SPHybrid to the scheduler callback interface without
// exposing those methods on the public type.
type client SPHybrid

func (c *client) h() *SPHybrid { return (*SPHybrid)(c) }

// RootFrame creates the initial empty trace (the computation starts as a
// single trace) and the root procedure frame.
func (c *client) RootFrame() *sched.Frame {
	h := c.h()
	h.globalMu.Lock()
	e := h.eng.InsertFirstLocked()
	hb := h.heb.InsertFirstLocked()
	h.globalMu.Unlock()
	t := h.newTrace(e, hb)
	return &sched.Frame{Data: &frameData{trace: t}}
}

// SpawnChild creates the frame for a spawned procedure; it executes on the
// same worker, so it stays in the parent's trace.
func (c *client) SpawnChild(w int, parent *sched.Frame, pnode *spt.Node) *sched.Frame {
	pd := parent.Data.(*frameData)
	return &sched.Frame{Data: &frameData{trace: pd.trace}}
}

// ExecThread inserts the thread into its frame's trace and S-bag (line 3
// of Figure 8), then runs the thread body.
func (c *client) ExecThread(w int, f *sched.Frame, leaf *spt.Node) {
	h := c.h()
	fd := f.Data.(*frameData)
	if fd.sDesc == nil {
		fd.sDesc = newBagDesc(true, fd.trace)
	}
	nd := h.forest.MakeSet(fd.sDesc)
	h.nodeOf[leaf.ID].Store(nd)
	if fd.sRep == nil {
		fd.sRep = nd
	} else {
		fd.sRep = h.forest.Union(fd.sRep, nd, fd.sDesc)
	}
	if h.exec != nil {
		h.exec(w, leaf)
	}
}

// ReturnChild fires only when the child's continuation was NOT stolen:
// the child's threads (all in the same trace as the parent) fold into the
// parent's P-bag, Feng–Leiserson style.
func (c *client) ReturnChild(w int, parent, child *sched.Frame, pnode *spt.Node) {
	h := c.h()
	pd := parent.Data.(*frameData)
	cd := child.Data.(*frameData)
	if cd.sRep == nil && cd.pRep == nil {
		return
	}
	if pd.pDesc == nil {
		pd.pDesc = newBagDesc(false, pd.trace)
	}
	rep := cd.sRep
	if cd.pRep != nil {
		// A completed procedure has synced, so its P-bag is normally
		// empty; fold it defensively (it can be non-empty only if the
		// child body ended right at a stolen join, which leaves the
		// bags frozen and owned by other traces — in that case cd's
		// fields were reset and are nil here).
		if rep == nil {
			rep = cd.pRep
		} else {
			rep = h.forest.Union(rep, cd.pRep, pd.pDesc)
		}
	}
	if pd.pRep == nil {
		pd.pRep = h.forest.Union(rep, rep, pd.pDesc) // restamp as parent's P-bag
	} else {
		pd.pRep = h.forest.Union(pd.pRep, rep, pd.pDesc)
	}
}

// Steal implements lines 19–24 of Figure 8. It runs on the thief while
// the victim's deque lock is held, so it is atomic with respect to the
// victim's local-tier operations on the affected frame. It creates the
// four new traces, inserts them around U in both global orders under the
// global lock, performs the O(1) SPLIT (donating the victim frame's
// S- and P-bags to U1 and U2), stashes U5 on the join for JoinComplete,
// and returns the thief's new frame in trace U4.
func (c *client) Steal(thief int, t *sched.Task) *sched.Frame {
	h := c.h()
	fd := t.Frame().Data.(*frameData)
	u := fd.trace

	// Global tier: insert the subtraces contiguously around U, in both
	// orders, under ONE acquisition of the shared insertion lock
	// (Figure 8 lines 20–23 hold a single lock around both
	// OM-MULTI-INSERTs; the lists share globalMu).
	//   Eng: U1, U2, U, U4, U5
	//   Heb: U1, U4, U, U2, U5
	h.globalMu.Lock()
	engBefore, engAfter := h.eng.MultiInsertAroundLocked(u.eng, 2, 2)
	hebBefore, hebAfter := h.heb.MultiInsertAroundLocked(u.heb, 2, 2)
	h.globalMu.Unlock()
	u1 := h.newTrace(engBefore[0], hebBefore[0])
	u4 := h.newTrace(engAfter[0], hebBefore[1])
	u2 := h.newTrace(engBefore[1], hebAfter[0])
	u5 := h.newTrace(engAfter[1], hebAfter[1])

	// SPLIT(U, X, U1, U2): donate the S- and P-bags. O(1) pointer
	// updates, exactly as in Section 5.
	if fd.sDesc != nil {
		fd.sDesc.trace.Store(u1)
	}
	if fd.pDesc != nil {
		fd.pDesc.trace.Store(u2)
	}
	fd.sRep, fd.pRep = nil, nil
	fd.sDesc, fd.pDesc = nil, nil

	// U5 becomes the frame's trace when the join completes.
	t.Join().Data = u5
	h.splits.Add(1)

	// The thief walks right(X) in a fresh frame in trace U4.
	return &sched.Frame{Data: &frameData{trace: u4}}
}

// JoinComplete fires on the last arrival at a join. For a stolen join the
// frame moves into the post-join trace U5 with fresh (empty) bags; for a
// local join with no remaining open P-nodes, the frame syncs: S ← S ∪ P.
func (c *client) JoinComplete(w int, j *sched.Join) {
	h := c.h()
	fd := j.Frame().Data.(*frameData)
	if j.Stolen.Load() {
		fd.trace = j.Data.(*Trace)
		fd.sRep, fd.pRep = nil, nil
		fd.sDesc, fd.pDesc = nil, nil
		return
	}
	if j.Frame().OpenP == 0 && fd.pRep != nil {
		if fd.sDesc == nil {
			fd.sDesc = newBagDesc(true, fd.trace)
		}
		if fd.sRep == nil {
			fd.sRep = h.forest.Union(fd.pRep, fd.pRep, fd.sDesc)
		} else {
			fd.sRep = h.forest.Union(fd.sRep, fd.pRep, fd.sDesc)
		}
		fd.pRep = nil
	}
}

// lookup returns the bag descriptor and trace of thread u as currently
// recorded by the local tier. u must have started executing.
func (h *SPHybrid) lookup(u *spt.Node) (*bagDesc, *Trace) {
	nd := h.nodeOf[u.ID].Load()
	if nd == nil {
		panic("sphybrid: query on a thread that has not executed")
	}
	desc := h.forest.Payload(nd).(*bagDesc)
	return desc, desc.trace.Load()
}

// FindTrace returns the trace thread u currently belongs to.
func (h *SPHybrid) FindTrace(u *spt.Node) *Trace {
	_, t := h.lookup(u)
	return t
}

// Precedes implements SP-PRECEDES(u, v) of Figure 9: it reports u ≺ v,
// where v must be a currently executing thread (or u and v both already
// retired with v's trace still current — Theorem 9's precondition). Same
// trace: the local tier answers (S-bag ⇒ precedes). Different traces: the
// global tier compares in both orders.
func (h *SPHybrid) Precedes(u, v *spt.Node) bool {
	if u == v {
		return false
	}
	h.queries.Add(1)
	du, tu := h.lookup(u)
	_, tv := h.lookup(v)
	if tu == tv {
		return du.isS
	}
	return h.eng.Precedes(tu.eng, tv.eng) && h.heb.Precedes(tu.heb, tv.heb)
}

// Parallel reports u ∥ v, with the same precondition as Precedes: same
// trace ⇒ P-bag; different traces ⇒ the global orders disagree.
func (h *SPHybrid) Parallel(u, v *spt.Node) bool {
	if u == v {
		return false
	}
	h.queries.Add(1)
	du, tu := h.lookup(u)
	_, tv := h.lookup(v)
	if tu == tv {
		return !du.isS
	}
	return h.eng.Precedes(tu.eng, tv.eng) != h.heb.Precedes(tu.heb, tv.heb)
}

// EnglishBefore reports u <_E v — u before the currently executing
// thread v in the English (serial depth-first execution) order — with
// Theorem 9's precondition. Different traces: the global English list
// answers lock-free. Same trace: a trace is the set of threads executed
// serially on one worker between steals, and u, already executed, ran
// before v on that worker, so u is English-before v.
func (h *SPHybrid) EnglishBefore(u, v *spt.Node) bool {
	if u == v {
		return false
	}
	_, tu := h.lookup(u)
	_, tv := h.lookup(v)
	if tu == tv {
		return true
	}
	return h.eng.Precedes(tu.eng, tv.eng)
}

// HebrewBefore reports u <_H v (spawn-swapped order), same precondition
// as EnglishBefore. Different traces: the global Hebrew list. Same
// trace: English already holds (see EnglishBefore), so Hebrew-before
// coincides with u ≺ v, which the local tier answers (S-bag ⇒ series).
func (h *SPHybrid) HebrewBefore(u, v *spt.Node) bool {
	if u == v {
		return false
	}
	du, tu := h.lookup(u)
	_, tv := h.lookup(v)
	if tu == tv {
		return du.isS
	}
	return h.heb.Precedes(tu.heb, tv.heb)
}

var _ sched.Client = (*client)(nil)
