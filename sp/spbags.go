package sp

import (
	"fmt"

	"repro/internal/ctab"
	"repro/internal/dsu"
)

// This file adapts the Feng–Leiserson SP-bags algorithm (the paper's
// baseline, footnote 7's thread-bags variant) to the event API. The
// classical formulation walks a canonical Cilk parse tree with one S-bag
// and one P-bag per procedure; the event formulation maintains one frame
// per spawned branch and — because every fork in the binary event model
// has its own matching join rather than one procedure-wide sync — one
// P-bag per open fork:
//
//   - Fork(u in frame F): push an open fork on F carrying a fresh child
//     frame F′ for the spawned branch; the continuation stays in F.
//   - While the spawned branch executes (the serial event order runs it
//     entirely before the continuation's first action), its threads
//     accumulate in S(F′), answering "precedes" for within-branch
//     queries exactly as the recursion does in the classical algorithm.
//   - When the continuation first acts (Begin), the completed branch is
//     folded into the fork's P-bag — its threads now answer "parallel",
//     which they are, to everything in the continuation subtree.
//   - Join(a, b) pops the fork and folds its P-bag into S(F): the whole
//     P-subtree is serially before the join continuation.
//
// A previously executed thread u relates to the currently executing
// thread exactly as in the paper: FIND(u) in an S-bag ⇒ u ≺ current,
// FIND(u) in a P-bag ⇒ u ∥ current. Each operation costs O(α) amortized.
// The event model needs no canonicalization — every fork/join stream is
// already in canonical (binary fork-join) form — but it does require the
// serial depth-first event order, like the original serial algorithm.

// bagKind tags a disjoint set as an S-bag or a P-bag.
type bagKind uint8

const (
	sBag bagKind = iota
	pBag
)

// bagsFork is one open fork of a frame: the spawned branch's frame, the
// fork's P-bag (populated when the branch is folded), and the
// continuation thread whose first action triggers the fold.
type bagsFork struct {
	child  *bagsFrame
	p      *dsu.Node
	cont   ThreadID
	folded bool
}

// bagsFrame is one branch of the monitored computation: an S-bag of
// threads serially before the branch's current thread, and a stack of
// open forks (well-nested joins pop in reverse order).
type bagsFrame struct {
	s     *dsu.Node
	stack []*bagsFork
}

// spBags is the event-driven SP-bags backend.
type spBags struct {
	forest dsu.Forest
	// threads holds each thread's handle in place, indexed by ThreadID:
	// binding a thread allocates nothing.
	threads ctab.Table[bagsRel]
}

func newSPBags() Maintainer { return &spBags{} }

// put registers t as a thread of frame f; t has not begun.
func (b *spBags) put(t ThreadID, f *bagsFrame) {
	*b.threads.Slot(int64(t)) = bagsRel{b: b, cur: t, frame: f}
}

// thread returns t's handle, or nil if t was never registered.
func (b *spBags) thread(t ThreadID) *bagsRel {
	if r := b.threads.At(int64(t)); r != nil && r.frame != nil {
		return r
	}
	return nil
}

func (b *spBags) Start(main ThreadID) { b.put(main, &bagsFrame{}) }

// fold moves the completed spawned branch into the fork's P-bag.
func (b *spBags) fold(fork *bagsFork) {
	if fork.folded {
		return
	}
	fork.folded = true
	if fork.child.s != nil {
		fork.p = b.forest.Union(fork.child.s, fork.child.s, pBag)
		fork.child.s = nil
	}
}

func (b *spBags) Begin(t ThreadID) {
	r := b.thread(t)
	if r == nil {
		panic(fmt.Sprintf("sp: sp-bags Begin of unknown thread t%d", t))
	}
	f := r.frame
	// If t is the continuation of the frame's newest open fork, the
	// spawned branch has completed (serial event order): fold it.
	if n := len(f.stack); n > 0 && f.stack[n-1].cont == t {
		b.fold(f.stack[n-1])
	}
	nd := b.forest.MakeSet(sBag)
	r.node = nd
	if f.s == nil {
		f.s = nd
	} else {
		f.s = b.forest.Union(f.s, nd, sBag)
	}
}

func (b *spBags) Fork(parent, left, right ThreadID) {
	f := b.thread(parent).frame
	child := &bagsFrame{}
	f.stack = append(f.stack, &bagsFork{child: child, cont: right})
	b.put(left, child)
	b.put(right, f)
}

func (b *spBags) Join(left, right, cont ThreadID) {
	f := b.thread(right).frame
	n := len(f.stack)
	if n == 0 {
		panic("sp: sp-bags Join with no open fork (joins must be well nested)")
	}
	fork := f.stack[n-1]
	f.stack = f.stack[:n-1]
	if fork.child != b.thread(left).frame {
		panic("sp: sp-bags Join does not match the innermost fork (joins must be well nested)")
	}
	// Anything still in the branch's S-bag (threads whose first action
	// was the join itself) and the fork's P-bag are now serially before
	// the continuation: fold both into S(F).
	for _, rep := range []*dsu.Node{fork.child.s, fork.p} {
		if rep == nil {
			continue
		}
		if f.s == nil {
			f.s = b.forest.Union(rep, rep, sBag)
		} else {
			f.s = b.forest.Union(f.s, rep, sBag)
		}
	}
	b.put(cont, f)
}

func (b *spBags) kind(t ThreadID) bagKind {
	r := b.thread(t)
	if r == nil || r.node == nil {
		panic(fmt.Sprintf("sp: sp-bags query on a thread that has not begun (t%d)", t))
	}
	return b.forest.Payload(r.node).(bagKind)
}

// bagsRel is an sp-bags thread's handle, in place in its slot: the
// frame it runs in and, once it has begun, its union-find node.
// SP-bags answers queries against the current thread only, off its bag
// kinds. Every past thread is English-before the current one, and it
// is Hebrew-before iff it precedes it: iff it sits in an S-bag.
type bagsRel struct {
	b     *spBags
	cur   ThreadID
	frame *bagsFrame
	node  *dsu.Node // nil until begun
}

func (r *bagsRel) Orders(prev ThreadID) (english, hebrew bool) {
	if prev == r.cur {
		return false, false
	}
	return true, r.b.kind(prev) == sBag
}

// ThreadRelative returns a pointer to t's handle in its slot; the
// handle is consumed under the Monitor's mutex (sp-bags is not
// Synchronized).
func (b *spBags) ThreadRelative(t ThreadID) CurrentRelative {
	if r := b.thread(t); r != nil {
		return r
	}
	panic(fmt.Sprintf("sp: sp-bags query on unknown thread t%d", t))
}

func init() {
	Register(BackendInfo{
		Name:        "sp-bags",
		Description: "Feng–Leiserson SP-bags over union-find (queries against the current thread only)",
		UpdateBound: "O(α) amortized", QueryBound: "O(α) amortized", SpaceBound: "O(1)",
	}, newSPBags)
}
