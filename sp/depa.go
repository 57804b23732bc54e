package sp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ctab"
	"repro/internal/depa"
	"repro/sp/metrics"
)

// This file adapts DePa-style fork-path order maintenance
// (internal/depa; Westrick–Wang–Acar, arXiv 2204.14168) to the event
// API as the second fully concurrent backend, racing the paper's
// SP-hybrid design head-to-head in the differential harness and
// spbench. Every thread's state is one immutable label kept in place
// in the thread's slot of a lock-free table, so the backend has no
// locks at all:
//
//   - Fork/Join derive the new labels in O(1) from the creator's label
//     (one allocation per fork, the base its two labels share, and none
//     per join; prefixes shared) and publish each with one atomic
//     store;
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
	rels ctab.Table[depaRel]

	// mxDepth and mxWalk record the distributions of the backend's two
	// cost drivers, which nothing else keeps — fork-nesting depth of
	// created labels and per-query divergence-walk length (the O(log d)
	// hops actually paid). Nil (no-op) unless the owning Monitor was
	// built WithMetrics.
	mxDepth *metrics.Histogram
	mxWalk  *metrics.Histogram
}

func newDepa() Maintainer { return &depaM{} }

// instrument points the backend's distributions at shared registry
// histograms, which record as the backend goes: it has nothing to
// publish.
func (d *depaM) instrument(reg *metrics.Registry) func() {
	d.mxDepth = reg.Histogram("sp_depa_label_depth", "fork-nesting depth of created thread labels")
	d.mxWalk = reg.Histogram("sp_depa_walk_steps", "hops, parent or jump, walked to answer one SP query")
	return nil
}

// relate answers both orders for distinct labels, feeding the walk
// length into the instrumentation.
func (d *depaM) relate(u, v *depa.Label) (eng, heb bool) {
	eng, heb, steps := depa.Relate(u, v)
	d.mxWalk.Observe(int64(steps))
	return eng, heb
}

// rel returns t's slot, panicking on unknown threads. Lock-free.
func (d *depaM) rel(t ThreadID) *depaRel {
	if r := d.rels.At(int64(t)); r != nil && r.made.Load() {
		return r
	}
	panic(fmt.Sprintf("sp: depa query on unknown thread t%d", t))
}

// put stores lab in t's slot and then marks the slot made.
func (d *depaM) put(t ThreadID, lab depa.Label) {
	r := d.rels.Slot(int64(t))
	r.lab = lab
	r.made.Store(true)
}

func (d *depaM) Start(main ThreadID) { d.put(main, depa.Root()) }

func (d *depaM) Begin(ThreadID) {}

func (d *depaM) Fork(parent, left, right ThreadID) {
	l, r := depa.Fork(&d.rel(parent).lab)
	d.put(left, l)
	d.put(right, r)
	d.mxDepth.Observe(int64(l.Depth()))
}

func (d *depaM) Join(left, right, cont ThreadID) {
	lab := depa.Join(&d.rel(left).lab, &d.rel(right).lab)
	d.put(cont, lab)
	d.mxDepth.Observe(int64(lab.Depth()))
}

// depaRel is a thread's slot: its label, in place, and its query
// handle. Labels are immutable, so the handle never goes stale, and
// every query is a pure pointer walk that reads both orders at once.
type depaRel struct {
	// d is the handle's identity; only ThreadRelative writes it.
	d   *depaM
	lab depa.Label
	// made is stored once lab is written: a slot without it holds no
	// thread.
	made atomic.Bool
}

// Orders reads both orders off one walk; a thread is before itself in
// neither.
func (r *depaRel) Orders(prev ThreadID) (english, hebrew bool) {
	u := &r.d.rel(prev).lab
	if u == &r.lab {
		return false, false
	}
	return r.d.relate(u, &r.lab)
}

// ThreadRelative implements Maintainer: it returns t's slot, writing
// the handle's identity there.
func (d *depaM) ThreadRelative(t ThreadID) CurrentRelative {
	r := d.rel(t)
	r.d = d
	return r
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
