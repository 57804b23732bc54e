package sp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ctab"
	"repro/internal/om"
	"repro/sp/metrics"
)

// This file adapts SP-hybrid (Sections 3–7) to the event API as the
// concurrent backend for monitoring live parallel programs. SP-hybrid's
// global tier orders TRACES — sets of threads executed on one processor
// between steals — in two concurrent order-maintenance lists with a
// single insertion lock and lock-free, timestamp-validated queries; its
// local tier exists to amortize global-tier traffic: in the paper only
// a steal forces global-tier work, so a P-processor execution pays for
// O(P·T_∞) global insertions rather than one per fork.
//
// A live monitor has no scheduler and therefore no steals to observe,
// so the paper's amortization lever is reproduced at the event layer:
// structural events do NOT touch the global tier. Fork and Join append
// a record to a pending queue under a small queue mutex and return —
// the degenerate local tier, holding threads whose global positions
// nobody has asked for yet. The global tier is updated lazily, in
// batches: the first query that needs a still-pending thread (and, as
// a backstop, every batchMax-th structural event) drains the queue,
// materializing ALL pending threads' positions in both OM lists under
// a SINGLE acquisition of the one shared insertion lock (the paper's
// Figure 8 discipline: one global lock for all insertions, queries
// lock-free). A fork-heavy phase that defers n structural events costs
// one lock acquisition instead of n — the event-stream analogue of
// "global-tier work only at steals", with a query playing the role of
// the steal that forces trace splits.
//
// Materialization order is the queue's FIFO order, which respects the
// fork-tree dependencies: a child's record is appended only after its
// parent's record (by the same thread, or after synchronization that
// published the parent's ID), so a drain always finds the insertion
// anchor already materialized. The insertion positions are the
// event-driven SP-order rules (see sporder.go): Fork(u) inserts l, r
// after u (English) and r, l after u (Hebrew); Join(a, b) inserts the
// continuation after the branch maxima b (English) and a (Hebrew).
//
// The thread→item table is a lock-free chunked table (internal/ctab):
// once a thread is materialized, a query is two atomic loads to find
// the items plus the OM lists' own lock-free label reads, so an access
// on a lock-free Monitor never takes a backend lock. Structural events
// take only the queue mutex, so the Monitor delivers them concurrently
// too (Synchronized).
//
// The scheduler-coupled SP-hybrid with real work-stealing and a live
// SP-bags local tier remains in internal/sphybrid (driven by
// internal/race.DetectParallel for the Theorem 10 and Section 7
// statistics); this backend is its event-stream face.

// batchMax bounds the pending queue: the batchMax-th deferred
// structural event triggers a drain even with no query in sight, so a
// long fork-only phase cannot grow the queue without bound and the
// amortized global-tier cost stays one lock acquisition per batch.
const batchMax = 128

// hybridItem is one thread's position in both global-tier lists.
type hybridItem struct {
	e *om.CItem // English order
	h *om.CItem // Hebrew order
}

// hybridEvent is one deferred structural event: a fork
// (parent→left∥right) or a join (left,right→cont).
type hybridEvent struct {
	fork    bool
	a, b, c ThreadID // fork: parent, left, right; join: left, right, cont
}

// hybrid is the concurrent (live) SP-maintenance backend.
type hybrid struct {
	insMu    sync.Mutex // the single global-tier insertion lock (both lists share it)
	eng, heb *om.Concurrent
	items    ctab.Table[hybridItem]

	pendMu  sync.Mutex
	pending []hybridEvent
	// pendingHW is the deepest pending has grown, under pendMu.
	pendingHW int

	// drains and batched count non-empty drains and the events they
	// materialized; drains ≪ batched is the amortization made visible.
	drains  atomic.Uint64
	batched atomic.Uint64

	// Registry instruments, nil unless the owning Monitor was built
	// WithMetrics: mxBatchSize records each drain as it happens, and
	// publish feeds the rest from the counts above and the OM lists'.
	mxBatchSize                         *metrics.Histogram
	mxPendingHW                         *metrics.Gauge
	mxDrains, mxBatched                 published
	mxRetries, mxRelabels, mxRebalances published
}

// instrument resolves the backend's registry instruments and returns
// publish.
func (h *hybrid) instrument(reg *metrics.Registry) func() {
	h.mxDrains.c = reg.Counter("sp_om_drains_total", "pending-queue drains (one shared-lock acquisition each)")
	h.mxBatched.c = reg.Counter("sp_om_batched_events_total", "structural events materialized by drains")
	h.mxBatchSize = reg.Histogram("sp_om_batch_size", "structural events materialized per drain")
	h.mxPendingHW = reg.Gauge("sp_om_pending_highwater", "deepest the pending structural-event queue has grown")
	h.mxRetries.c = reg.Counter("sp_om_query_retries_total", "lock-free OM queries that had to retry after a concurrent relabel or split")
	h.mxRelabels.c = reg.Counter("sp_om_relabels_total", "OM labels rewritten: items relabeled or moved to a new bucket, and buckets relabeled")
	h.mxRebalances.c = reg.Counter("sp_om_rebalances_total", "OM relabelings of one bucket's items or of a range of buckets")
	return h.publish
}

// publish adds to the registry what the backend and its two OM lists
// counted since the last publish, and raises the high-water gauge to
// this backend's.
func (h *hybrid) publish() {
	h.mxDrains.set(int64(h.drains.Load()))
	h.mxBatched.set(int64(h.batched.Load()))
	h.mxRetries.set(h.eng.QueryRetries.Load() + h.heb.QueryRetries.Load())
	h.mxRelabels.set(h.eng.Relabels.Load() + h.heb.Relabels.Load())
	h.mxRebalances.set(h.eng.Rebalances.Load() + h.heb.Rebalances.Load())
	h.pendMu.Lock()
	hw := h.pendingHW
	h.pendMu.Unlock()
	h.mxPendingHW.SetMax(float64(hw))
}

func newHybrid() Maintainer {
	h := &hybrid{}
	h.eng = om.NewConcurrentShared(&h.insMu)
	h.heb = om.NewConcurrentShared(&h.insMu)
	return h
}

// mustItem returns t's materialized positions. Called only with insMu
// held during a drain, where every anchor is guaranteed present; a miss
// is a dependency-order bug, not a pending thread.
func (h *hybrid) mustItem(t ThreadID) *hybridItem {
	it := h.items.Get(int64(t))
	if it == nil {
		panic(fmt.Sprintf("sp: sp-hybrid drain found unmaterialized anchor t%d", t))
	}
	return it
}

// item returns t's list positions, draining the pending queue if t has
// not been materialized yet. The fast path (already materialized) is
// one lock-free table lookup.
func (h *hybrid) item(t ThreadID) *hybridItem {
	if it := h.items.Get(int64(t)); it != nil {
		return it
	}
	h.drain()
	if it := h.items.Get(int64(t)); it != nil {
		return it
	}
	panic(fmt.Sprintf("sp: sp-hybrid query on unknown thread t%d", t))
}

// drain materializes every pending structural event's threads into the
// two OM lists under one acquisition of the shared insertion lock.
// Concurrent drains serialize on insMu; the queue swap happens inside,
// so batches are processed in append order.
func (h *hybrid) drain() {
	h.insMu.Lock()
	defer h.insMu.Unlock()
	h.pendMu.Lock()
	batch := h.pending
	h.pending = nil
	h.pendMu.Unlock()
	if len(batch) == 0 {
		return
	}
	h.drains.Add(1)
	h.batched.Add(uint64(len(batch)))
	h.mxBatchSize.Observe(int64(len(batch)))
	for _, ev := range batch {
		if ev.fork {
			p := h.mustItem(ev.a)
			// OM-MULTI-INSERT with the lock already held: English
			// ⟨u, l, r⟩, Hebrew ⟨u, r, l⟩ (the P-node swap).
			_, eAfter := h.eng.MultiInsertAroundLocked(p.e, 0, 2)
			_, hAfter := h.heb.MultiInsertAroundLocked(p.h, 0, 2)
			// Publish each thread's two positions in one atomic store, so
			// a concurrent query never sees a thread with only one list
			// position.
			h.items.Put(int64(ev.b), &hybridItem{e: eAfter[0], h: hAfter[1]})
			h.items.Put(int64(ev.c), &hybridItem{e: eAfter[1], h: hAfter[0]})
		} else {
			l, r := h.mustItem(ev.a), h.mustItem(ev.b)
			h.items.Put(int64(ev.c), &hybridItem{
				e: h.eng.InsertAfterLocked(r.e),
				h: h.heb.InsertAfterLocked(l.h),
			})
		}
	}
}

// enqueue defers a structural event, draining once the queue hits
// batchMax. The drain runs after the queue mutex is released (drain
// acquires insMu before pendMu; appenders must never hold pendMu while
// asking for insMu).
func (h *hybrid) enqueue(ev hybridEvent) {
	h.pendMu.Lock()
	h.pending = append(h.pending, ev)
	h.pendingHW = max(h.pendingHW, len(h.pending))
	full := len(h.pending) >= batchMax
	h.pendMu.Unlock()
	if full {
		h.drain()
	}
}

func (h *hybrid) Start(main ThreadID) {
	h.insMu.Lock()
	h.items.Put(int64(main), &hybridItem{e: h.eng.InsertFirstLocked(), h: h.heb.InsertFirstLocked()})
	h.insMu.Unlock()
}

func (h *hybrid) Begin(ThreadID) {}

func (h *hybrid) Fork(parent, left, right ThreadID) {
	h.enqueue(hybridEvent{fork: true, a: parent, b: left, c: right})
}

func (h *hybrid) Join(left, right, cont ThreadID) {
	h.enqueue(hybridEvent{a: left, b: right, c: cont})
}

// hybridRel is the cached per-thread query handle. Resolution is lazy:
// the handle is created at the structural event that creates the
// thread, when the thread is typically still pending — resolving there
// would force a drain per fork and destroy the batching. The first
// query resolves (draining if needed) and caches the items.
type hybridRel struct {
	h  *hybrid
	id ThreadID
	it atomic.Pointer[hybridItem]
}

func (r *hybridRel) resolve() *hybridItem {
	if it := r.it.Load(); it != nil {
		return it
	}
	it := r.h.item(r.id)
	r.it.Store(it)
	return it
}

// Orders is two lock-free global-tier label reads (Figure 9 with
// singleton traces: the same-trace local case never arises), exact for
// any pair under genuinely concurrent event delivery.
func (r *hybridRel) Orders(prev ThreadID) (english, hebrew bool) {
	cur := r.resolve()
	p := r.h.item(prev)
	return r.h.eng.Precedes(p.e, cur.e), r.h.heb.Precedes(p.h, cur.h)
}

// ThreadRelative implements Maintainer. It does not resolve the
// thread's positions — t may still be pending, and binding happens
// inside the Monitor's Fork and Join, which may run concurrently.
func (h *hybrid) ThreadRelative(t ThreadID) CurrentRelative {
	return &hybridRel{h: h, id: t}
}

func init() {
	Register(BackendInfo{
		Name:        "sp-hybrid",
		Description: "SP-hybrid global tier: batched lazy OM insertions under one lock, lock-free queries",
		UpdateBound: "O(1) amortized (one insertion-lock acquisition per batch)", QueryBound: "O(1) expected, lock-free", SpaceBound: "O(1)",
		FullQueries:  true,
		AnyOrder:     true,
		Synchronized: true,
	}, newHybrid)
}
