package sp

import (
	"fmt"

	"repro/internal/ctab"
	"repro/internal/depa"
	"repro/sp/metrics"
)

// This file adapts DePa-style fork-path order maintenance
// (internal/depa; Westrick–Wang–Acar, arXiv 2204.14168) to the event
// API as the second fully concurrent backend, racing the paper's
// SP-hybrid design head-to-head in the differential harness and
// spbench. Every thread's state is one immutable label published
// through a lock-free table, so the backend has no locks at all:
//
//   - Fork/Join derive the new labels in O(1) from the creator's label
//     (three allocations per fork, one per join, prefixes shared) and
//     publish them with single atomic stores;
//   - queries climb the two fork paths to their divergence component,
//     by parent pointers and skew-binary jump pointers, and read BOTH
//     total orders off that one comparison — no retries, no global
//     structure, no insertion lock to batch or amortize.
//
// That makes depa Synchronized: a Monitor that records no trace applies
// all of its events without the global mutex. The trade-off: query cost
// is O(log d) hops in fork-nesting depth d, against SP-hybrid's
// O(1)-expected lock-free global-tier comparison.

// depaM is the DePa backend: one immutable label per thread.
type depaM struct {
	labels ctab.Table[depa.Label]

	// mxDepth and mxWalk are registry mirrors of the backend's two cost
	// drivers — fork-nesting depth of created labels and per-query
	// divergence-walk length (the O(log d) hops actually paid). Nil
	// (no-op) unless the owning Monitor was built WithMetrics.
	mxDepth *metrics.Histogram
	mxWalk  *metrics.Histogram
}

func newDepa() Maintainer { return &depaM{} }

// instrument points the backend's distributions at shared registry
// histograms.
func (d *depaM) instrument(reg *metrics.Registry) {
	d.mxDepth = reg.Histogram("sp_depa_label_depth", "fork-nesting depth of created thread labels")
	d.mxWalk = reg.Histogram("sp_depa_walk_steps", "hops, parent or jump, walked to answer one SP query")
}

// relate answers both orders for distinct labels, feeding the walk
// length into the instrumentation.
func (d *depaM) relate(u, v *depa.Label) (eng, heb bool) {
	eng, heb, steps := depa.Relate(u, v)
	d.mxWalk.Observe(int64(steps))
	return eng, heb
}

// label returns t's fork path, panicking on unknown threads. Lock-free.
func (d *depaM) label(t ThreadID) *depa.Label {
	l := d.labels.Get(int64(t))
	if l == nil {
		panic(fmt.Sprintf("sp: depa query on unknown thread t%d", t))
	}
	return l
}

func (d *depaM) Start(main ThreadID) { d.labels.Put(int64(main), depa.Root()) }

func (d *depaM) Begin(ThreadID) {}

func (d *depaM) Fork(parent, left, right ThreadID) {
	l, r := depa.Fork(d.label(parent))
	d.labels.Put(int64(left), l)
	d.labels.Put(int64(right), r)
	d.mxDepth.Observe(int64(l.Depth()))
}

func (d *depaM) Join(left, right, cont ThreadID) {
	lab := depa.Join(d.label(left), d.label(right))
	d.labels.Put(int64(cont), lab)
	d.mxDepth.Observe(int64(lab.Depth()))
}

// depaRel is the cached per-thread query handle: the thread's label is
// resolved once at thread creation (labels are immutable, so the handle
// never goes stale), and every query is a pure pointer walk that reads
// both orders at once.
type depaRel struct {
	d   *depaM
	lab *depa.Label
}

// orders reports prev <_E and prev <_H the handle's thread; a thread is
// before itself in neither.
func (r depaRel) orders(prev ThreadID) (eng, heb bool) {
	u := r.d.label(prev)
	if u == r.lab {
		return false, false
	}
	return r.d.relate(u, r.lab)
}

func (r depaRel) PrecedesCurrent(prev ThreadID) bool {
	eng, heb := r.orders(prev)
	return eng && heb
}

func (r depaRel) ParallelCurrent(prev ThreadID) bool {
	eng, heb := r.orders(prev)
	return eng != heb
}

func (r depaRel) EnglishBeforeCurrent(prev ThreadID) bool {
	eng, _ := r.orders(prev)
	return eng
}

func (r depaRel) HebrewBeforeCurrent(prev ThreadID) bool {
	_, heb := r.orders(prev)
	return heb
}

// ThreadRelative implements Maintainer.
func (d *depaM) ThreadRelative(t ThreadID) CurrentRelative {
	return depaRel{d: d, lab: d.label(t)}
}

func init() {
	Register(BackendInfo{
		Name:        "depa",
		Description: "DePa fork-path labels: O(1) lock-free fork/join, both orders from one label walk",
		UpdateBound: "O(1) worst case, lock-free", QueryBound: "O(log d)", SpaceBound: "O(1) amortized (shared fork paths)",
		FullQueries:  true,
		AnyOrder:     true,
		Synchronized: true,
	}, newDepa)
}
