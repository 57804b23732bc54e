package sp

import (
	"fmt"

	"repro/internal/ctab"
	"repro/internal/om"
)

// This file adapts the paper's serial SP-order algorithm (Section 2,
// Figure 5) to the event API. The tree-walk formulation inserts an
// internal node's children into the English and Hebrew order-maintenance
// lists when the node is expanded; the event formulation performs the
// equivalent insertions directly from the fork/join stream:
//
//   - Fork(u) → (l, r): the parse tree grows S(u, P(T_l, T_r)) at u's
//     position, so l and r are inserted immediately after u — left then
//     right in English, right then left in Hebrew (the P-node swap of
//     Figure 5, lines 5–7).
//
//   - Join(a, b) → c: the continuation c is in series after the whole
//     P-subtree. The terminal of a completed branch is both the English
//     and the Hebrew maximum of its subtree, so the subtree's English
//     maximum is b (right-branch terminal) and its Hebrew maximum is a
//     (the P-swap makes the left branch Hebrew-last): c is inserted
//     after b in English and after a in Hebrew.
//
// A thread's handle answers one query, Orders: whether u is before v in
// the English list and in the Hebrew list. Lemma 1 / Corollary 2 read
// the SP relation off those two bits: u ≺ v iff u precedes v in both
// orders; u ∥ v iff the orders disagree. Because insertions are positioned relative to existing items
// only, the structure is independent of event arrival order: SP-order is
// the one serial backend that tolerates any creation-respecting event
// order (AnyOrder).

// spOrder is the event-driven serial SP-order backend.
type spOrder struct {
	eng, heb *om.List
	// rels holds each thread's handle in place, indexed by ThreadID: a
	// handle's address is stable, so binding a thread allocates nothing.
	rels ctab.Table[orderRel]
}

func newSPOrder() Maintainer { return &spOrder{eng: om.NewList(), heb: om.NewList()} }

// put registers t's items in the two lists.
func (s *spOrder) put(t ThreadID, e, h *om.Item) {
	*s.rels.Slot(int64(t)) = orderRel{s: s, e: e, h: h}
}

// rel returns t's handle, panicking if t was never registered.
func (s *spOrder) rel(t ThreadID) *orderRel {
	if r := s.rels.At(int64(t)); r != nil && r.e != nil {
		return r
	}
	panic(fmt.Sprintf("sp: sp-order query on unknown thread t%d", t))
}

func (s *spOrder) Start(main ThreadID) { s.put(main, s.eng.InsertFirst(), s.heb.InsertFirst()) }

func (s *spOrder) Begin(ThreadID) {}

// Fork inserts English ⟨u, l, r⟩ and Hebrew ⟨u, r, l⟩ (the P-node
// swap), one item at a time.
func (s *spOrder) Fork(parent, left, right ThreadID) {
	p := s.rel(parent)
	le := s.eng.InsertAfter(p.e)
	re := s.eng.InsertAfter(le)
	rh := s.heb.InsertAfter(p.h)
	lh := s.heb.InsertAfter(rh)
	s.put(left, le, lh)
	s.put(right, re, rh)
}

func (s *spOrder) Join(left, right, cont ThreadID) {
	s.put(cont, s.eng.InsertAfter(s.rel(right).e), s.heb.InsertAfter(s.rel(left).h))
}

// ThreadRelative returns a pointer to t's handle in its slot.
func (s *spOrder) ThreadRelative(t ThreadID) CurrentRelative { return s.rel(t) }

// orderRel is an sp-order thread's handle: its items in the English and
// Hebrew lists. Orders is two label comparisons, exact for any pair, so
// the Monitor's two-reader protocol stays complete on the
// concurrent-order event streams it serializes for this backend.
type orderRel struct {
	s    *spOrder
	e, h *om.Item
}

func (r *orderRel) Orders(prev ThreadID) (english, hebrew bool) {
	p := r.s.rel(prev)
	return r.s.eng.Precedes(p.e, r.e), r.s.heb.Precedes(p.h, r.h)
}

// spOrderImplicit is the footnote-2 variant: during a serial depth-first
// execution the English order of threads is just execution order, so it
// is maintained implicitly by a begin counter and only the Hebrew order
// needs the OM structure. This halves the OM-INSERT traffic at the cost
// of requiring the serial (English) event order.
type spOrderImplicit struct {
	heb *om.List
	// rels holds each thread's handle in place, indexed by ThreadID, as
	// sp-order's does: binding a thread allocates nothing.
	rels    ctab.Table[implicitRel]
	counter int64
}

func newSPOrderImplicit() Maintainer { return &spOrderImplicit{heb: om.NewList()} }

// put registers t's Hebrew item; t has not begun.
func (s *spOrderImplicit) put(t ThreadID, h *om.Item) {
	*s.rels.Slot(int64(t)) = implicitRel{s: s, cur: t, h: h}
}

// rel returns t's handle, panicking if t was never registered.
func (s *spOrderImplicit) rel(t ThreadID) *implicitRel {
	if r := s.rels.At(int64(t)); r != nil && r.h != nil {
		return r
	}
	panic(fmt.Sprintf("sp: sp-order-implicit query on unknown thread t%d", t))
}

func (s *spOrderImplicit) Start(main ThreadID) { s.put(main, s.heb.InsertFirst()) }

func (s *spOrderImplicit) Begin(t ThreadID) {
	if r := s.rel(t); r.eng == 0 {
		s.counter++
		r.eng = s.counter
	}
}

func (s *spOrderImplicit) Fork(parent, left, right ThreadID) {
	rh := s.heb.InsertAfter(s.rel(parent).h)
	s.put(right, rh)
	s.put(left, s.heb.InsertAfter(rh))
}

func (s *spOrderImplicit) Join(left, right, cont ThreadID) {
	s.put(cont, s.heb.InsertAfter(s.rel(left).h))
}

// implicitRel is an sp-order-implicit thread's handle: its Hebrew item
// and its begin index, which is its English position. Orders is exact
// for any two begun threads.
type implicitRel struct {
	s   *spOrderImplicit
	cur ThreadID
	h   *om.Item
	eng int64 // 1-based begin index; 0 = not yet begun
}

func (r *implicitRel) Orders(prev ThreadID) (english, hebrew bool) {
	if prev == r.cur {
		return false, false
	}
	p := r.s.rel(prev)
	if p.eng == 0 || r.eng == 0 {
		panic(fmt.Sprintf("sp: sp-order-implicit query on a thread that has not begun (t%d, t%d)", prev, r.cur))
	}
	return p.eng < r.eng, r.s.heb.Precedes(p.h, r.h)
}

// ThreadRelative returns a pointer to t's handle in its slot; the
// handle is consumed under the Monitor's mutex.
func (s *spOrderImplicit) ThreadRelative(t ThreadID) CurrentRelative { return s.rel(t) }

func init() {
	Register(BackendInfo{
		Name:        "sp-order",
		Description: "serial SP-order over two order-maintenance lists (Section 2)",
		UpdateBound: "O(1) amortized", QueryBound: "O(1)", SpaceBound: "O(1)",
		FullQueries: true,
		AnyOrder:    true,
	}, newSPOrder)
	Register(BackendInfo{
		Name:        "sp-order-implicit",
		Description: "SP-order with the English order kept by an execution counter (footnote 2)",
		UpdateBound: "O(1) amortized", QueryBound: "O(1)", SpaceBound: "O(1)",
		FullQueries: true,
	}, newSPOrderImplicit)
}
