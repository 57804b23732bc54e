// Package depa implements DePa-style fork-path order maintenance for
// binary fork-join programs (Westrick, Wang, Acar — "DePa: Simple,
// Provably Efficient, and Practical Order Maintenance for Task
// Parallelism", arXiv 2204.14168).
//
// Where the paper's SP-order and SP-hybrid maintain two explicit
// order-maintenance lists, DePa gives every thread a static label — its
// fork path — from which BOTH total orders (English and Hebrew) are
// computed at query time. A label is a persistent linked path of per-
// nesting-level components (tag, seq):
//
//   - tag is the branch taken at the fork that opened the level: the
//     spawned branch (left) or the continuation (right);
//   - seq counts the structural events the level's frame has passed:
//     forking bumps the creator's last component into the shared base,
//     joining bumps it again into the continuation.
//
// Fork is O(1) with one allocation: the shared base (parent with
// seq+1) extends the parent's immutable prefix, and the two children
// extend base with tags left/right and seq 0. Join is O(1) with none:
// strip the branch level off the continuation terminal and bump. No
// label points at a thread's own label — children hang off the fork
// base, and a join continuation off the base's parent — so a thread's
// label is a value its owner keeps where it likes (sp's depa backend
// keeps it in the thread's table slot), and only fork bases are objects
// of their own. Labels never mutate, so queries are lock-free and
// graph-independent: no shared structure is consulted at all.
//
// A query walks the two paths to their divergence level — the deepest
// components that differ under a shared prefix (prefixes are shared
// structurally, so the walk compares pointers) — and reads both orders
// off that one comparison:
//
//   - tags differ: the two threads sit in opposite branches of one fork,
//     so they are parallel; English orders the spawned branch first,
//     Hebrew the continuation first (the P-node swap).
//   - seqs differ (tags equal): same branch, different epochs, so the
//     smaller seq is serially before the larger in BOTH orders.
//
// Every component also keeps a skew-binary jump pointer (Myers, "An
// applicative random-access stack", IPL 17(5), 1983) to an ancestor
// level. Jump targets depend only on depth, and a component's jump is
// derived in O(1) from its up pointer's, so Fork and Join stay O(1). A
// query first climbs the deeper path to the other's depth, then climbs
// both paths together, taking a jump whenever both paths' jumps still
// differ; either climb takes O(log d) hops for fork-nesting depth d,
// against the O(d) of following parent pointers one level at a time.
// Space stays O(1) amortized per thread (suffix sharing), with no
// synchronization anywhere, which is what lets the sp adapter declare
// every concurrency capability including lock-free structural events.
package depa

import "fmt"

// Branch tags. The spawned (left) branch is English-earlier, so tags
// compare in English order directly; Hebrew is the flip.
const (
	tagLeft  int8 = 0
	tagRight int8 = 1
)

// Label is one thread's fork path. Labels are immutable after creation
// and share their prefixes structurally. A thread's label is known by
// its address: Relate tells labels apart by pointer, so keep each
// thread's label in one place and pass that place's address. The zero
// value is the root label.
type Label struct {
	up    *Label // enclosing nesting level; nil at the root level
	jump  *Label // skew-binary jump to an ancestor level; nil at the root level
	depth int32
	tag   int8
	seq   uint64
}

// Root returns the main thread's label.
func Root() Label { return Label{} }

// Depth returns the fork-nesting depth of the label (root = 0); queries
// involving the label take O(log Depth) parent or jump hops.
func (l *Label) Depth() int { return int(l.depth) }

// jumpFrom returns the jump pointer of a component whose up pointer is
// up: two equal-length jumps from up merge into one twice as long (plus
// one), otherwise the jump is up itself. Target depths then follow the
// skew-binary numbers, depending on depth alone.
func jumpFrom(up *Label) *Label {
	if up == nil {
		return nil
	}
	if j := up.jump; j != nil && j.jump != nil && up.depth-j.depth == j.depth-j.jump.depth {
		return j.jump
	}
	return up
}

// Fork derives the labels of the two threads created when the thread
// labeled parent forks: the spawned child (left) and the continuation
// (right), logically parallel. O(1): the shared base bumps parent's
// last component, and each child opens a new level at seq 0. The base
// is the one allocation.
func Fork(parent *Label) (left, right Label) {
	base := &Label{up: parent.up, jump: parent.jump, depth: parent.depth, tag: parent.tag, seq: parent.seq + 1}
	jump := jumpFrom(base)
	left = Label{up: base, jump: jump, depth: base.depth + 1, tag: tagLeft}
	right = Label{up: base, jump: jump, depth: base.depth + 1, tag: tagRight}
	return left, right
}

// Join derives the continuation label when threads left and right — the
// terminals of the two branches of one fork — join. O(1) and allocation
// free: strip the branch level and bump past the join. It panics if the
// two labels are not branch terminals of the same fork (joins must be
// well nested).
func Join(left, right *Label) Label {
	if left.up == nil || left.up != right.up || left.tag != tagLeft || right.tag != tagRight {
		panic("depa: Join of threads that are not the two branch terminals of one fork")
	}
	base := right.up
	return Label{up: base.up, jump: base.jump, depth: base.depth, tag: base.tag, seq: base.seq + 1}
}

// Relate compares u and v at their divergence level and returns whether
// u is before v in the English and in the Hebrew order: by Lemma 1 of
// the SP-order paper, u ≺ v iff both hold and u ∥ v iff they disagree.
// steps counts the parent or jump hops taken to reach the divergence
// component — the O(log d) a query actually paid, which instrumented
// monitors aggregate into a walk-length distribution. u and v must be
// distinct thread labels from one computation.
func Relate(u, v *Label) (eng, heb bool, steps int) {
	a, b := u, v
	for a.depth > b.depth {
		a = climb(a, b.depth)
		steps++
	}
	for b.depth > a.depth {
		b = climb(b, a.depth)
		steps++
	}
	if a == b {
		// One path is a strict prefix of the other. Impossible between
		// thread labels: a thread's seq is even at every level (children
		// start at 0, joins add 2), while a fork base — the only node a
		// deeper path hangs off — has odd seq.
		panic(fmt.Sprintf("depa: thread label is a prefix of another (depths %d, %d)", u.depth, v.depth))
	}
	// a and b sit at one depth, so their jumps do too. Jump while the
	// jump targets still differ: the divergence level is not above them.
	for a.up != b.up {
		if a.jump != b.jump {
			a, b = a.jump, b.jump
		} else {
			a, b = a.up, b.up
		}
		steps++
	}
	switch {
	case a.tag != b.tag:
		// Opposite branches of one fork: parallel. English spawns first.
		eng = a.tag < b.tag
		return eng, !eng, steps
	case a.seq != b.seq:
		// Same branch, different epochs: serial, both orders agree.
		eng = a.seq < b.seq
		return eng, eng, steps
	default:
		panic("depa: distinct labels with identical divergence component")
	}
}

// climb takes one hop from a toward its ancestor at depth d < a.depth:
// the jump if it does not overshoot d, the parent otherwise.
func climb(a *Label, d int32) *Label {
	if a.jump.depth >= d {
		return a.jump
	}
	return a.up
}
