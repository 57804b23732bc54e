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
// Each thread's handle and its two list positions share one slot of a
// lock-free chunked table (internal/ctab): once a thread is
// materialized, a query is a few atomic loads to find the positions
// plus the OM lists' own lock-free label reads, so an access on a
// lock-free Monitor never takes a backend lock, and binding a thread
// allocates nothing. Structural events take only the queue mutex, so
// the Monitor delivers them concurrently too (Synchronized).
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
	rels     ctab.Table[hybridRel]

	pendMu  sync.Mutex
	pending []hybridEvent
	// pendingHW is the deepest pending has grown, under pendMu.
	pendingHW int
	// spare is the buffer the last drain emptied, under insMu: the next
	// drain hands it to the appenders, so batches reuse two buffers.
	spare []hybridEvent

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

// positions returns t's materialized positions in the English and
// Hebrew lists, or nils while t is pending or unknown. It is lock-free:
// the drain stores the Hebrew position before the English one, so a
// reader that sees the English position sees both.
func (h *hybrid) positions(t ThreadID) (e, hb *om.CItem) {
	if r := h.rels.At(int64(t)); r != nil {
		if e = r.e.Load(); e != nil {
			return e, r.hb.Load()
		}
	}
	return nil, nil
}

// mustPositions returns t's materialized positions. Called only with
// insMu held during a drain, where every anchor is guaranteed present;
// a miss is a dependency-order bug, not a pending thread.
func (h *hybrid) mustPositions(t ThreadID) (e, hb *om.CItem) {
	e, hb = h.positions(t)
	if e == nil {
		panic(fmt.Sprintf("sp: sp-hybrid drain found unmaterialized anchor t%d", t))
	}
	return e, hb
}

// item returns t's list positions, draining the pending queue if t has
// not been materialized yet. The fast path (already materialized) is
// one lock-free table lookup.
func (h *hybrid) item(t ThreadID) (e, hb *om.CItem) {
	if e, hb = h.positions(t); e != nil {
		return e, hb
	}
	h.drain()
	if e, hb = h.positions(t); e != nil {
		return e, hb
	}
	panic(fmt.Sprintf("sp: sp-hybrid query on unknown thread t%d", t))
}

// materialize publishes t's two positions in its slot, Hebrew first.
// The caller holds insMu.
func (h *hybrid) materialize(t ThreadID, e, hb *om.CItem) {
	r := h.rels.Slot(int64(t))
	r.hb.Store(hb)
	r.e.Store(e)
}

// drain materializes every pending structural event's threads into the
// two OM lists under one acquisition of the shared insertion lock.
// Concurrent drains serialize on insMu; the queue swap happens inside,
// so batches are processed in append order. The emptied batch buffer
// is kept for the next drain.
func (h *hybrid) drain() {
	h.insMu.Lock()
	defer h.insMu.Unlock()
	h.pendMu.Lock()
	batch := h.pending
	h.pending = h.spare[:0]
	h.pendMu.Unlock()
	h.spare = batch[:0]
	if len(batch) == 0 {
		return
	}
	h.drains.Add(1)
	h.batched.Add(uint64(len(batch)))
	h.mxBatchSize.Observe(int64(len(batch)))
	for _, ev := range batch {
		if ev.fork {
			// OM-INSERT with the lock already held, one item at a
			// time: English ⟨u, l, r⟩, Hebrew ⟨u, r, l⟩ (the P-node
			// swap).
			pe, ph := h.mustPositions(ev.a)
			le := h.eng.InsertAfterLocked(pe)
			re := h.eng.InsertAfterLocked(le)
			rh := h.heb.InsertAfterLocked(ph)
			lh := h.heb.InsertAfterLocked(rh)
			h.materialize(ev.b, le, lh)
			h.materialize(ev.c, re, rh)
		} else {
			_, lh := h.mustPositions(ev.a)
			re, _ := h.mustPositions(ev.b)
			h.materialize(ev.c, h.eng.InsertAfterLocked(re), h.heb.InsertAfterLocked(lh))
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
	h.materialize(main, h.eng.InsertFirstLocked(), h.heb.InsertFirstLocked())
	h.insMu.Unlock()
}

func (h *hybrid) Begin(ThreadID) {}

func (h *hybrid) Fork(parent, left, right ThreadID) {
	h.enqueue(hybridEvent{fork: true, a: parent, b: left, c: right})
}

func (h *hybrid) Join(left, right, cont ThreadID) {
	h.enqueue(hybridEvent{a: left, b: right, c: cont})
}

// hybridRel is a thread's slot: its query handle and its positions in
// both global-tier lists. Resolution is lazy: the handle is bound at
// the structural event that creates the thread, when the thread is
// typically still pending — resolving there would force a drain per
// fork and destroy the batching. The first query drains if the
// positions are still missing.
type hybridRel struct {
	// h and id are the handle's identity. Only ThreadRelative writes
	// them, on the goroutine that creates the thread; a drain on another
	// goroutine writes only the positions.
	h  *hybrid
	id ThreadID
	// e and hb are the English and Hebrew positions, stored by the drain
	// that materializes the thread, hb first.
	e, hb atomic.Pointer[om.CItem]
}

// Orders is two lock-free global-tier label reads (Figure 9 with
// singleton traces: the same-trace local case never arises), exact for
// any pair under genuinely concurrent event delivery.
func (r *hybridRel) Orders(prev ThreadID) (english, hebrew bool) {
	ce, ch := r.e.Load(), r.hb.Load()
	if ce == nil {
		ce, ch = r.h.item(r.id)
	}
	pe, ph := r.h.item(prev)
	return r.h.eng.Precedes(pe, ce), r.h.heb.Precedes(ph, ch)
}

// ThreadRelative implements Maintainer: it returns t's slot, writing
// the handle's identity there. It does not resolve the thread's
// positions — t may still be pending, and binding happens inside the
// Monitor's Fork and Join, which may run concurrently.
func (h *hybrid) ThreadRelative(t ThreadID) CurrentRelative {
	r := h.rels.Slot(int64(t))
	r.h, r.id = h, t
	return r
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
