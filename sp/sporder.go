package sp

import (
	"fmt"

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
// Queries, asked through a thread's handle, are Lemma 1 / Corollary 2
// verbatim: u ≺ v iff u precedes v in both orders; u ∥ v iff the orders
// disagree. Because insertions are positioned relative to existing items
// only, the structure is independent of event arrival order: SP-order is
// the one serial backend that tolerates any creation-respecting event
// order (AnyOrder).

// spOrder is the event-driven serial SP-order backend.
type spOrder struct {
	eng, heb *om.List
	// rels holds each thread's handle, indexed by ThreadID, in pages of
	// relPage that never move once allocated: a handle's address is
	// stable, so binding a thread allocates nothing.
	rels [][]orderRel
}

// relPage is the number of sp-order handles per page.
const relPage = 256

func newSPOrder() Maintainer { return &spOrder{eng: om.NewList(), heb: om.NewList()} }

// put registers t's items in the two lists, opening pages up to t's.
func (s *spOrder) put(t ThreadID, e, h *om.Item) {
	for int(t/relPage) >= len(s.rels) {
		s.rels = append(s.rels, make([]orderRel, relPage))
	}
	s.rels[t/relPage][t%relPage] = orderRel{s: s, e: e, h: h}
}

// rel returns t's handle, panicking if t was never registered.
func (s *spOrder) rel(t ThreadID) *orderRel {
	if p := uint64(t) / relPage; p < uint64(len(s.rels)) {
		if r := &s.rels[p][uint64(t)%relPage]; r.e != nil {
			return r
		}
	}
	panic(fmt.Sprintf("sp: sp-order query on unknown thread t%d", t))
}

func (s *spOrder) Start(main ThreadID) { s.put(main, s.eng.InsertFirst(), s.heb.InsertFirst()) }

func (s *spOrder) Begin(ThreadID) {}

func (s *spOrder) Fork(parent, left, right ThreadID) {
	p := s.rel(parent)
	e := s.eng.InsertAfterN(p.e, 2)
	h := s.heb.InsertAfterN(p.h, 2)
	s.put(left, e[0], h[1])
	s.put(right, e[1], h[0])
}

func (s *spOrder) Join(left, right, cont ThreadID) {
	s.put(cont, s.eng.InsertAfter(s.rel(right).e), s.heb.InsertAfter(s.rel(left).h))
}

// ThreadRelative returns a pointer to t's handle in its page.
func (s *spOrder) ThreadRelative(t ThreadID) CurrentRelative { return s.rel(t) }

// orderRel is an sp-order thread's handle: its items in the English and
// Hebrew lists. Every answer is one or two label comparisons and exact
// for any pair, so the Monitor's two-reader protocol stays complete on
// the concurrent-order event streams it serializes for this backend.
type orderRel struct {
	s    *spOrder
	e, h *om.Item
}

func (r *orderRel) PrecedesCurrent(prev ThreadID) bool {
	p := r.s.rel(prev)
	return r.s.eng.Precedes(p.e, r.e) && r.s.heb.Precedes(p.h, r.h)
}

func (r *orderRel) ParallelCurrent(prev ThreadID) bool {
	p := r.s.rel(prev)
	return r.s.eng.Precedes(p.e, r.e) != r.s.heb.Precedes(p.h, r.h)
}

func (r *orderRel) EnglishBeforeCurrent(prev ThreadID) bool {
	return r.s.eng.Precedes(r.s.rel(prev).e, r.e)
}

func (r *orderRel) HebrewBeforeCurrent(prev ThreadID) bool {
	return r.s.heb.Precedes(r.s.rel(prev).h, r.h)
}

// spOrderImplicit is the footnote-2 variant: during a serial depth-first
// execution the English order of threads is just execution order, so it
// is maintained implicitly by a begin counter and only the Hebrew order
// needs the OM structure. This halves the OM-INSERT traffic at the cost
// of requiring the serial (English) event order.
type spOrderImplicit struct {
	heb     *om.List
	hebIt   []*om.Item
	engIdx  []int64 // 1-based begin index; 0 = not yet begun
	counter int64
}

func newSPOrderImplicit() Maintainer { return &spOrderImplicit{heb: om.NewList()} }

func (s *spOrderImplicit) grow(t ThreadID) {
	for int(t) >= len(s.hebIt) {
		s.hebIt = append(s.hebIt, nil)
		s.engIdx = append(s.engIdx, 0)
	}
}

func (s *spOrderImplicit) Start(main ThreadID) {
	s.grow(main)
	s.hebIt[main] = s.heb.InsertFirst()
}

func (s *spOrderImplicit) Begin(t ThreadID) {
	if s.engIdx[t] == 0 {
		s.counter++
		s.engIdx[t] = s.counter
	}
}

func (s *spOrderImplicit) Fork(parent, left, right ThreadID) {
	s.grow(right)
	h := s.heb.InsertAfterN(s.hebIt[parent], 2)
	s.hebIt[right], s.hebIt[left] = h[0], h[1]
}

func (s *spOrderImplicit) Join(left, right, cont ThreadID) {
	s.grow(cont)
	s.hebIt[cont] = s.heb.InsertAfter(s.hebIt[left])
}

// english reports prev's and cur's begin indices compared: prev <_E cur.
func (s *spOrderImplicit) english(prev, cur ThreadID) bool {
	ep, ec := s.engIdx[prev], s.engIdx[cur]
	if ep == 0 || ec == 0 {
		panic(fmt.Sprintf("sp: sp-order-implicit query on a thread that has not begun (t%d, t%d)", prev, cur))
	}
	return ep < ec
}

// implicitRel is the cached per-thread query handle: the thread's
// Hebrew item is resolved once, at binding. The English half of each
// SP answer is the begin indices; the order answers use the
// serial-stream equivalence the backend requires anyway.
type implicitRel struct {
	s   *spOrderImplicit
	cur ThreadID
	h   *om.Item
}

func (r implicitRel) PrecedesCurrent(prev ThreadID) bool {
	return prev != r.cur && r.s.english(prev, r.cur) && r.s.heb.Precedes(r.s.hebIt[prev], r.h)
}

func (r implicitRel) ParallelCurrent(prev ThreadID) bool {
	return prev != r.cur && r.s.english(prev, r.cur) != r.s.heb.Precedes(r.s.hebIt[prev], r.h)
}

func (r implicitRel) EnglishBeforeCurrent(prev ThreadID) bool { return prev != r.cur }

func (r implicitRel) HebrewBeforeCurrent(prev ThreadID) bool { return r.PrecedesCurrent(prev) }

// ThreadRelative implements Maintainer; the handle is consumed under
// the Monitor's mutex.
func (s *spOrderImplicit) ThreadRelative(t ThreadID) CurrentRelative {
	return implicitRel{s: s, cur: t, h: s.hebIt[t]}
}

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
