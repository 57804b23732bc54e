package sp

import (
	"fmt"
	"slices"
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

// relateOS compares two offset-span labels: -1 (first precedes), +1
// (first follows), 0 (parallel). Two threads are ordered iff at the
// first differing pair the offsets are congruent modulo the span (serial
// descendants advance offsets in multiples of the span); incongruent
// offsets mean sibling branches, hence parallel.
func relateOS(a, b []osPair) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		pa, pb := a[i], b[i]
		if pa == pb {
			continue
		}
		if pa.span != pb.span {
			return 0 // different fork contexts at the same depth
		}
		if pa.offset%pa.span != pb.offset%pa.span {
			return 0 // sibling branches of the same fork
		}
		if pa.offset < pb.offset {
			return -1
		}
		return +1
	}
	// One label is a prefix of the other; the shorter thread is an
	// ancestor position and executed first.
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return +1
	}
	return 0
}

// englishHebrew is the event-driven Nudler–Rudolph backend.
type englishHebrew struct {
	eng     []int64
	heb     [][]int32
	counter int64
}

func newEnglishHebrew() *englishHebrew { return &englishHebrew{} }

func (e *englishHebrew) grow(t ThreadID) {
	for int(t) >= len(e.eng) {
		e.eng = append(e.eng, 0)
		e.heb = append(e.heb, nil)
	}
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

func (e *englishHebrew) Start(main ThreadID) {
	e.grow(main)
	e.heb[main] = []int32{0}
}

func (e *englishHebrew) Begin(t ThreadID) {
	if e.eng[t] == 0 {
		e.counter++
		e.eng[t] = e.counter
	}
}

func (e *englishHebrew) Fork(parent, left, right ThreadID) {
	e.grow(right)
	base := bumpHeb(e.heb[parent])
	// Left (spawned) branch is Hebrew-later: tag 1; right earlier: tag 0.
	e.heb[left] = extendHeb(base, 1)
	e.heb[right] = extendHeb(base, 0)
}

func (e *englishHebrew) Join(left, right, cont ThreadID) {
	e.grow(cont)
	b := e.heb[right]
	// Strip the branch components to recover the fork's context, then
	// advance past the join.
	e.heb[cont] = bumpHeb(b[:len(b)-2])
}

func (e *englishHebrew) indices(a, b ThreadID) (ea, eb int64) {
	ea, eb = e.eng[a], e.eng[b]
	if ea == 0 || eb == 0 {
		panic(fmt.Sprintf("sp: english-hebrew query on a thread that has not begun (t%d, t%d)", a, b))
	}
	return
}

// precedes reports a ≺ b for any two begun threads: the one query by
// ID, which the Monitor's edge mirror asks (see Monitor.pairPrecedes).
func (e *englishHebrew) precedes(a, b ThreadID) bool {
	ea, eb := e.indices(a, b)
	return ea < eb && slices.Compare(e.heb[a], e.heb[b]) < 0
}

// offsetSpan is the event-driven Mellor-Crummey backend.
type offsetSpan struct {
	lab [][]osPair
}

func newOffsetSpan() Maintainer { return &offsetSpan{} }

func (o *offsetSpan) grow(t ThreadID) {
	for int(t) >= len(o.lab) {
		o.lab = append(o.lab, nil)
	}
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

func (o *offsetSpan) Start(main ThreadID) {
	o.grow(main)
	o.lab[main] = []osPair{{offset: 0, span: 1}}
}

func (o *offsetSpan) Begin(ThreadID) {}

func (o *offsetSpan) Fork(parent, left, right ThreadID) {
	o.grow(right)
	base := advanceOS(o.lab[parent])
	o.lab[left] = extendOS(base, 0)
	o.lab[right] = extendOS(base, 1)
}

func (o *offsetSpan) Join(left, right, cont ThreadID) {
	o.grow(cont)
	b := o.lab[right]
	// Pop the branch pair and advance past the join.
	o.lab[cont] = advanceOS(b[:len(b)-1])
}

// ehRel is the cached per-thread query handle: the current thread's
// Hebrew label is resolved once at thread creation (labels are
// generated at the structural event and never mutate), so each query
// compares against the cached slice instead of re-indexing the backend
// twice. Unlike the other serial backends, english-hebrew maintains
// both total orders explicitly, so its order answers are exact.
type ehRel struct {
	e   *englishHebrew
	cur ThreadID
	heb []int32
}

func (r ehRel) PrecedesCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	ep, ec := r.e.indices(prev, r.cur)
	return ep < ec && slices.Compare(r.e.heb[prev], r.heb) < 0
}

func (r ehRel) ParallelCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	ep, ec := r.e.indices(prev, r.cur)
	return (ep < ec) != (slices.Compare(r.e.heb[prev], r.heb) < 0)
}

func (r ehRel) EnglishBeforeCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	ep, ec := r.e.indices(prev, r.cur)
	return ep < ec
}

func (r ehRel) HebrewBeforeCurrent(prev ThreadID) bool {
	return prev != r.cur && slices.Compare(r.e.heb[prev], r.heb) < 0
}

// ThreadRelative implements Maintainer; the handle is consumed under
// the Monitor's mutex.
func (e *englishHebrew) ThreadRelative(t ThreadID) CurrentRelative {
	return ehRel{e: e, cur: t, heb: e.heb[t]}
}

// osRel is offset-span's cached per-thread handle; the label is
// immutable once generated. Offset-span encodes no execution order, so
// the order answers use the serial-stream equivalence the backend
// requires anyway.
type osRel struct {
	o   *offsetSpan
	cur ThreadID
	lab []osPair
}

func (r osRel) PrecedesCurrent(prev ThreadID) bool {
	return prev != r.cur && relateOS(r.o.lab[prev], r.lab) < 0
}

func (r osRel) ParallelCurrent(prev ThreadID) bool {
	return prev != r.cur && relateOS(r.o.lab[prev], r.lab) == 0
}

func (r osRel) EnglishBeforeCurrent(prev ThreadID) bool { return prev != r.cur }

func (r osRel) HebrewBeforeCurrent(prev ThreadID) bool { return r.PrecedesCurrent(prev) }

// ThreadRelative implements Maintainer; the handle is consumed under
// the Monitor's mutex.
func (o *offsetSpan) ThreadRelative(t ThreadID) CurrentRelative {
	return osRel{o: o, cur: t, lab: o.lab[t]}
}

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
