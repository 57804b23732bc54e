package sp

import (
	"fmt"
	"slices"

	"repro/internal/ctab"
)

// This file adapts the two static labeling baselines of Figure 3 — the
// English-Hebrew scheme of Nudler–Rudolph and the offset-span scheme of
// Mellor-Crummey — to the event API. Both schemes generate a thread's
// label from its creator's label at the structural event that creates
// it, so the tree-walk context stack of the classical formulation
// collapses to per-thread labels plus two local rules:
//
//   - Fork(u) → (l, r): advance u's label past its completed block (the
//     walk's post-leaf bump), then extend it with the two branch
//     components — EH appends (tag, fresh counter) with the left branch
//     tagged Hebrew-later; offset-span appends [i, 2] pairs.
//   - Join(a, b) → c: strip the branch components off the continuation
//     terminal b's label (recovering the fork's saved context — serial
//     successors only ever modify the last component) and advance.
//
// The English half of the EH scheme is the thread's execution index,
// maintained by the Begin counter, so — like the original on-the-fly
// labeling pass — these backends require the serial depth-first event
// order. Labels never change once generated; their weakness, and the
// reason SP-order beats them, is that label length (and thus query cost)
// grows with fork nesting.

// osPair is one (offset, span) component of an offset-span label. A
// fork of span s gives child i the parent label extended with [i, s]; a
// join pops the last pair and advances the new last pair's offset by its
// span.
type osPair struct {
	offset, span int64
}

// ordersOS reports a <_E b and a <_H b for two offset-span labels,
// decided at the first pair where they differ. Spans never differ at
// equal depth (depth 0 always has span 1, and every fork adds span 2),
// so the two offsets share a span there:
//
//   - congruent offsets modulo the span are serial positions of one
//     branch (serial successors advance the offset by the span), and
//     the smaller one is before in both orders;
//   - incongruent offsets are the two branches of one fork, and the
//     spawned branch, the smaller residue, is English-first and
//     Hebrew-last (the P-node swap).
//
// When one label is a prefix of the other, the shorter one is an
// ancestor position, before in both orders; equal labels are before
// each other in neither.
func ordersOS(a, b []osPair) (english, hebrew bool) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		pa, pb := a[i], b[i]
		if pa == pb {
			continue
		}
		ra, rb := pa.offset%pa.span, pb.offset%pa.span
		if ra == rb {
			return pa.offset < pb.offset, pa.offset < pb.offset
		}
		return ra < rb, ra > rb
	}
	return len(a) < len(b), len(a) < len(b)
}

// englishHebrew is the event-driven Nudler–Rudolph backend.
type englishHebrew struct {
	// rels holds each thread's handle in place, indexed by ThreadID:
	// binding a thread allocates nothing.
	rels    ctab.Table[ehRel]
	counter int64
}

func newEnglishHebrew() *englishHebrew { return &englishHebrew{} }

// put registers t's Hebrew label; t has not begun.
func (e *englishHebrew) put(t ThreadID, heb []int32) {
	*e.rels.Slot(int64(t)) = ehRel{e: e, cur: t, heb: heb}
}

// rel returns t's handle, panicking if t was never registered.
func (e *englishHebrew) rel(t ThreadID) *ehRel {
	if r := e.rels.At(int64(t)); r != nil && r.heb != nil {
		return r
	}
	panic(fmt.Sprintf("sp: english-hebrew query on unknown thread t%d", t))
}

// bumpHeb returns a copy of v with its trailing counter advanced.
func bumpHeb(v []int32) []int32 {
	out := make([]int32, len(v))
	copy(out, v)
	out[len(out)-1]++
	return out
}

// extendHeb returns a copy of v with a branch tag and a fresh counter.
func extendHeb(v []int32, tag int32) []int32 {
	out := make([]int32, len(v)+2)
	copy(out, v)
	out[len(v)] = tag
	return out
}

func (e *englishHebrew) Start(main ThreadID) { e.put(main, []int32{0}) }

func (e *englishHebrew) Begin(t ThreadID) {
	if r := e.rel(t); r.eng == 0 {
		e.counter++
		r.eng = e.counter
	}
}

func (e *englishHebrew) Fork(parent, left, right ThreadID) {
	base := bumpHeb(e.rel(parent).heb)
	// Left (spawned) branch is Hebrew-later: tag 1; right earlier: tag 0.
	e.put(left, extendHeb(base, 1))
	e.put(right, extendHeb(base, 0))
}

func (e *englishHebrew) Join(left, right, cont ThreadID) {
	b := e.rel(right).heb
	// Strip the branch components to recover the fork's context, then
	// advance past the join.
	e.put(cont, bumpHeb(b[:len(b)-2]))
}

// orders reports a <_E b and a <_H b for any two begun threads: the
// one query by ID, which the Monitor's edge mirror asks (see
// Monitor.pairPrecedes).
func (e *englishHebrew) orders(a, b ThreadID) (english, hebrew bool) {
	return e.rel(b).Orders(a)
}

// offsetSpan is the event-driven Mellor-Crummey backend.
type offsetSpan struct {
	// rels holds each thread's handle in place, indexed by ThreadID:
	// binding a thread allocates nothing.
	rels ctab.Table[osRel]
}

func newOffsetSpan() Maintainer { return &offsetSpan{} }

// put registers t's label.
func (o *offsetSpan) put(t ThreadID, lab []osPair) {
	*o.rels.Slot(int64(t)) = osRel{o: o, lab: lab}
}

// rel returns t's handle, panicking if t was never registered.
func (o *offsetSpan) rel(t ThreadID) *osRel {
	if r := o.rels.At(int64(t)); r != nil && r.lab != nil {
		return r
	}
	panic(fmt.Sprintf("sp: offset-span query on unknown thread t%d", t))
}

// advanceOS returns a copy of v with the last pair's offset advanced by
// its span (the serial-successor rule).
func advanceOS(v []osPair) []osPair {
	out := make([]osPair, len(v))
	copy(out, v)
	out[len(out)-1].offset += out[len(out)-1].span
	return out
}

// extendOS returns a copy of v extended with the pair [offset, 2].
func extendOS(v []osPair, offset int64) []osPair {
	out := make([]osPair, len(v)+1)
	copy(out, v)
	out[len(v)] = osPair{offset: offset, span: 2}
	return out
}

func (o *offsetSpan) Start(main ThreadID) { o.put(main, []osPair{{offset: 0, span: 1}}) }

func (o *offsetSpan) Begin(ThreadID) {}

func (o *offsetSpan) Fork(parent, left, right ThreadID) {
	base := advanceOS(o.rel(parent).lab)
	o.put(left, extendOS(base, 0))
	o.put(right, extendOS(base, 1))
}

func (o *offsetSpan) Join(left, right, cont ThreadID) {
	b := o.rel(right).lab
	// Pop the branch pair and advance past the join.
	o.put(cont, advanceOS(b[:len(b)-1]))
}

// ehRel is an english-hebrew thread's handle, in place in its slot: its
// Hebrew label, generated at the structural event that creates the
// thread and never changed, and its begin index, which is its English
// position. Orders reads the English order off the begin indices and
// the Hebrew order off one label comparison.
type ehRel struct {
	e   *englishHebrew
	cur ThreadID
	eng int64 // 1-based begin index; 0 = not yet begun
	heb []int32
}

func (r *ehRel) Orders(prev ThreadID) (english, hebrew bool) {
	if prev == r.cur {
		return false, false
	}
	p := r.e.rel(prev)
	if p.eng == 0 || r.eng == 0 {
		panic(fmt.Sprintf("sp: english-hebrew query on a thread that has not begun (t%d, t%d)", prev, r.cur))
	}
	return p.eng < r.eng, slices.Compare(p.heb, r.heb) < 0
}

// ThreadRelative returns a pointer to t's handle in its slot; the
// handle is consumed under the Monitor's mutex.
func (e *englishHebrew) ThreadRelative(t ThreadID) CurrentRelative { return e.rel(t) }

// osRel is an offset-span thread's handle, in place in its slot: its
// label, immutable once generated.
type osRel struct {
	o   *offsetSpan
	lab []osPair
}

func (r *osRel) Orders(prev ThreadID) (english, hebrew bool) {
	return ordersOS(r.o.rel(prev).lab, r.lab)
}

// ThreadRelative returns a pointer to t's handle in its slot; the
// handle is consumed under the Monitor's mutex.
func (o *offsetSpan) ThreadRelative(t ThreadID) CurrentRelative { return o.rel(t) }

func init() {
	Register(BackendInfo{
		Name:        "english-hebrew",
		Description: "static Nudler–Rudolph labels generated on the fly (Figure 3 baseline)",
		UpdateBound: "O(f)", QueryBound: "O(f)", SpaceBound: "O(f) words",
		FullQueries: true,
	}, func() Maintainer { return newEnglishHebrew() })
	Register(BackendInfo{
		Name:        "offset-span",
		Description: "static Mellor-Crummey offset-span labels generated on the fly (Figure 3 baseline)",
		UpdateBound: "O(d)", QueryBound: "O(d)", SpaceBound: "O(d) words",
		FullQueries: true,
	}, newOffsetSpan)
}
