package sp

import (
	"fmt"

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
	node   []*dsu.Node // per ThreadID; nil until begun
	frame  []*bagsFrame
}

func newSPBags() Maintainer { return &spBags{} }

func (b *spBags) grow(t ThreadID) {
	for int(t) >= len(b.node) {
		b.node = append(b.node, nil)
		b.frame = append(b.frame, nil)
	}
}

func (b *spBags) Start(main ThreadID) {
	b.grow(main)
	b.frame[main] = &bagsFrame{}
}

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
	f := b.frame[t]
	if f == nil {
		panic(fmt.Sprintf("sp: sp-bags Begin of unknown thread t%d", t))
	}
	// If t is the continuation of the frame's newest open fork, the
	// spawned branch has completed (serial event order): fold it.
	if n := len(f.stack); n > 0 && f.stack[n-1].cont == t {
		b.fold(f.stack[n-1])
	}
	nd := b.forest.MakeSet(sBag)
	b.node[t] = nd
	if f.s == nil {
		f.s = nd
	} else {
		f.s = b.forest.Union(f.s, nd, sBag)
	}
}

func (b *spBags) Fork(parent, left, right ThreadID) {
	b.grow(right)
	f := b.frame[parent]
	child := &bagsFrame{}
	f.stack = append(f.stack, &bagsFork{child: child, cont: right})
	b.frame[left] = child
	b.frame[right] = f
}

func (b *spBags) Join(left, right, cont ThreadID) {
	b.grow(cont)
	f := b.frame[right]
	n := len(f.stack)
	if n == 0 {
		panic("sp: sp-bags Join with no open fork (joins must be well nested)")
	}
	fork := f.stack[n-1]
	f.stack = f.stack[:n-1]
	if fork.child != b.frame[left] {
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
	b.frame[cont] = f
}

func (b *spBags) kind(t ThreadID) bagKind {
	nd := b.node[t]
	if nd == nil {
		panic(fmt.Sprintf("sp: sp-bags query on a thread that has not begun (t%d)", t))
	}
	return b.forest.Payload(nd).(bagKind)
}

// bagsRel is the per-thread query handle. SP-bags answers queries
// against the current thread only, off its bag kinds, so the handle
// needs no per-thread state beyond the identity guard. The order
// answers use the serial-stream equivalence (the only regime sp-bags
// supports): every past thread is English-before the current one, and
// Hebrew-before coincides with precedes.
type bagsRel struct {
	b   *spBags
	cur ThreadID
}

func (r bagsRel) PrecedesCurrent(prev ThreadID) bool {
	return prev != r.cur && r.b.kind(prev) == sBag
}

func (r bagsRel) ParallelCurrent(prev ThreadID) bool {
	return prev != r.cur && r.b.kind(prev) == pBag
}

func (r bagsRel) EnglishBeforeCurrent(prev ThreadID) bool { return prev != r.cur }

func (r bagsRel) HebrewBeforeCurrent(prev ThreadID) bool { return r.PrecedesCurrent(prev) }

// ThreadRelative implements Maintainer; the handle is consumed under
// the Monitor's mutex (sp-bags is not Synchronized).
func (b *spBags) ThreadRelative(t ThreadID) CurrentRelative { return bagsRel{b: b, cur: t} }

func init() {
	Register(BackendInfo{
		Name:        "sp-bags",
		Description: "Feng–Leiserson SP-bags over union-find (queries against the current thread only)",
		UpdateBound: "O(α) amortized", QueryBound: "O(α) amortized", SpaceBound: "O(1)",
	}, newSPBags)
}
