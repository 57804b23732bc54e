package depa

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/spt"
)

// root, fork and join give every thread label an object of its own, as
// a caller keeping each label in its own slot does, so that the tests
// can hold labels by address.
func root() *Label { l := Root(); return &l }

func fork(parent *Label) (*Label, *Label) {
	l, r := Fork(parent)
	return &l, &r
}

func join(left, right *Label) *Label {
	c := Join(left, right)
	return &c
}

// labelWalk replays tree n depth-first in the event model, assigning
// every leaf the label of the thread executing it, and returns the label
// of the thread that continues after the subtree. Serial composition
// continues on the same thread, so consecutive serial leaves share a
// label — exactly as they share a ThreadID in the event API.
func labelWalk(n *spt.Node, cur *Label, out map[*spt.Node]*Label) *Label {
	if n.IsLeaf() {
		out[n] = cur
		return cur
	}
	if n.IsS() {
		cur = labelWalk(n.Left(), cur, out)
		return labelWalk(n.Right(), cur, out)
	}
	l, r := fork(cur)
	lEnd := labelWalk(n.Left(), l, out)
	rEnd := labelWalk(n.Right(), r, out)
	return labelWalk0(lEnd, rEnd)
}

func labelWalk0(l, r *Label) *Label { return join(l, r) }

// TestHandExample pins the worked example P(a, S(P(c, d), e)): a is
// parallel to everything, c ∥ d, both precede e. Relate's two bits say
// so by Lemma 1: parallel pairs disagree across the orders (English
// runs the spawned branch first, Hebrew the continuation), serial pairs
// agree.
func TestHandExample(t *testing.T) {
	main := root()
	a, cont := fork(main) // a ∥ rest
	c, d := fork(cont)
	e := join(c, d) // continuation after c, d
	for _, tc := range []struct {
		name     string
		u, v     *Label
		eng, heb bool
	}{
		{"a ∥ c", a, c, true, false},
		{"a ∥ d", a, d, true, false},
		{"a ∥ e", a, e, true, false},
		{"c ∥ d", c, d, true, false},
		{"d ∥ c", d, c, false, true},
		{"c ≺ e", c, e, true, true},
		{"d ≺ e", d, e, true, true},
		{"main ≺ e", main, e, true, true},
		{"main ≺ a", main, a, true, true},
		{"e ≻ c", e, c, false, false},
		{"e ≻ main", e, main, false, false},
	} {
		if eng, heb, _ := Relate(tc.u, tc.v); eng != tc.eng || heb != tc.heb {
			t.Errorf("%s: Relate reads English %v, Hebrew %v; want %v, %v", tc.name, eng, heb, tc.eng, tc.heb)
		}
	}
}

// TestJoinValidation checks Join panics when the two labels are not the
// branch terminals of one fork (malformed, non-well-nested join).
func TestJoinValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Join of non-siblings did not panic")
		}
	}()
	l1, r1 := fork(root())
	l2, _ := fork(l1)
	_ = r1
	join(l2, r1) // terminals of different forks
}

// TestRandomTreesAgainstOracle cross-checks Relate's two orders, both
// ways round, against the parse-tree LCA oracle over random programs:
// for every pair of leaves executed by distinct threads, English order
// must be the depth-first execution order, and a ≺ b iff a is before b
// in both orders, a ∥ b iff the orders disagree (Lemma 1). The last trials are spt.Par spines of
// 500–2,000 elements, whose labels nest as deep as the spine is long;
// there the oracle (O(depth) per query) checks a sample of pairs.
func TestRandomTreesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 306; trial++ {
		var tree *spt.Tree
		if trial < 300 {
			cfg := spt.DefaultGenConfig(2 + rng.Intn(30))
			cfg.PProb = []float64{0.2, 0.5, 0.8}[rng.Intn(3)]
			cfg.Skew = []float64{0.15, 0.5, 0.85}[rng.Intn(3)]
			tree = spt.Generate(cfg, rng)
		} else {
			tree = spineTree(500+rng.Intn(1501), rng)
		}
		oracle := spt.NewOracle(tree)
		labels := map[*spt.Node]*Label{}
		labelWalk(tree.Root(), root(), labels)

		leaves := tree.Threads()
		check := func(u, v *spt.Node) {
			lu, lv := labels[u], labels[v]
			if lu == lv {
				return // same event thread (serial block)
			}
			eng, heb, _ := Relate(lu, lv)
			revEng, revHeb, _ := Relate(lv, lu)
			// English order of distinct thread labels follows leaf
			// (depth-first) order, and each order is total.
			if !eng || revEng || heb == revHeb {
				t.Fatalf("trial %d: orders of %v, %v read English %v/%v, Hebrew %v/%v",
					trial, u, v, eng, revEng, heb, revHeb)
			}
			if wantPrec := oracle.Precedes(u, v); (eng && heb) != wantPrec {
				t.Fatalf("trial %d: %v ≺ %v reads %v, oracle %v", trial, u, v, !wantPrec, wantPrec)
			}
			if wantPar := oracle.Parallel(u, v); (eng != heb) != wantPar || (revEng != revHeb) != wantPar {
				t.Fatalf("trial %d: %v ∥ %v disagrees with oracle %v", trial, u, v, wantPar)
			}
		}
		if len(leaves) <= 64 {
			for i, u := range leaves {
				for _, v := range leaves[i+1:] {
					check(u, v)
				}
			}
			continue
		}
		for k := 0; k < 2000; k++ {
			i, j := rng.Intn(len(leaves)), rng.Intn(len(leaves))
			if i > j {
				i, j = j, i
			}
			if i != j {
				check(leaves[i], leaves[j])
			}
		}
	}
}

// spineTree returns the right-leaning P-chain spt.Par builds over n
// elements, each a leaf, a parallel pair, or a leaf, pair, leaf series,
// followed in series by one more leaf so the spine joins back.
func spineTree(n int, rng *rand.Rand) *spt.Tree {
	leaf := func() *spt.Node { return spt.NewLeaf("u", 1) }
	elems := make([]*spt.Node, n)
	for i := range elems {
		switch rng.Intn(3) {
		case 0:
			elems[i] = leaf()
		case 1:
			elems[i] = spt.Par(leaf(), leaf())
		default:
			elems[i] = spt.Seq(leaf(), spt.Par(leaf(), leaf()), leaf())
		}
	}
	return spt.MustTree(spt.Seq(spt.Par(elems...), leaf()))
}

// walkRelate is Relate by parent pointers alone, one nesting level per
// hop: the O(d) reference the jump pointers must agree with.
func walkRelate(u, v *Label) (eng, heb bool, steps int) {
	a, b := u, v
	for a.depth > b.depth {
		a = a.up
		steps++
	}
	for b.depth > a.depth {
		b = b.up
		steps++
	}
	for a.up != b.up {
		a, b = a.up, b.up
		steps++
	}
	if a.tag != b.tag {
		return a.tag < b.tag, b.tag < a.tag, steps
	}
	return a.seq < b.seq, a.seq < b.seq, steps
}

// TestDeepLabelsAgainstWalk checks Relate against the parent-pointer
// walk on deep labels, and its hop count against 3·⌈log2(d+1)⌉ for the
// deeper label's depth d: on the 16,384-deep right spine of
// spt.Par(leaves...), where the walk averages thousands of hops, and on
// random fork/join executions that nest at least 1,000 levels deep and
// return to the root level.
func TestDeepLabelsAgainstWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	// The right spine: each fork's continuation forks again.
	var spine []*Label
	cur := root()
	for i := 0; i < 16384; i++ {
		l, r := fork(cur)
		spine = append(spine, l)
		cur = r
	}
	spine = append(spine, cur)

	// A serial depth-first execution: fork with probability 0.7 until
	// 1,000 levels deep, then with probability 0.3 until every branch
	// has joined, keeping every label created.
	type frame struct{ right, leftEnd *Label }
	var random []*Label
	cur = root()
	random = append(random, cur)
	var stack []*frame
	deepest := 0
	for deepest < 1000 || len(stack) > 0 {
		pFork := 0.7
		if deepest >= 1000 {
			pFork = 0.3
		}
		switch top := len(stack) - 1; {
		case top < 0 || rng.Float64() < pFork:
			l, r := fork(cur)
			stack = append(stack, &frame{right: r})
			cur = l
			deepest = max(deepest, len(stack))
		case stack[top].leftEnd == nil:
			stack[top].leftEnd = cur
			cur = stack[top].right
		default:
			cur = join(stack[top].leftEnd, cur)
			stack = stack[:top]
		}
		random = append(random, cur)
	}
	if cur.Depth() != 0 {
		t.Fatalf("random execution ended at depth %d", cur.Depth())
	}

	for _, shape := range []struct {
		name   string
		labels []*Label
	}{{"spine", spine}, {"random", random}} {
		total, worst := 0, 0
		for k := 0; k < 20000; k++ {
			u := shape.labels[rng.Intn(len(shape.labels))]
			v := shape.labels[rng.Intn(len(shape.labels))]
			if u == v {
				continue
			}
			eng, heb, steps := Relate(u, v)
			wEng, wHeb, _ := walkRelate(u, v)
			if eng != wEng || heb != wHeb {
				t.Fatalf("%s: Relate at depths %d, %d = (%v, %v), walk (%v, %v)",
					shape.name, u.Depth(), v.Depth(), eng, heb, wEng, wHeb)
			}
			d := max(u.Depth(), v.Depth())
			if bound := 3 * bits.Len(uint(d)); steps > bound {
				t.Fatalf("%s: %d hops at depths %d, %d; bound %d", shape.name, steps, u.Depth(), v.Depth(), bound)
			}
			total += steps
			worst = max(worst, steps)
		}
		t.Logf("%s: mean %.1f, max %d hops per query", shape.name, float64(total)/20000, worst)
	}
}

// TestStructuralSharing asserts the O(1)-space claim: a fork allocates
// one base, with the parent path shared, so a spine of n forks costs
// O(n) total — not O(n²) — label memory. It checks pointer-shared
// prefixes (TestAllocsForkJoin counts the allocations): the left and
// right children of a fork share their up pointer, and the join
// continuation shares the grandparent path.
func TestStructuralSharing(t *testing.T) {
	cur := root()
	for i := 0; i < 64; i++ {
		l, r := fork(cur)
		if l.up != r.up {
			t.Fatal("fork children must share their base")
		}
		if l.up.up != cur.up {
			t.Fatal("fork base must share the parent's prefix")
		}
		cont := join(l, r)
		if cont.up != cur.up || cont.Depth() != cur.Depth() {
			t.Fatal("join continuation must return to the parent level")
		}
		cur = cont
	}
	if cur.Depth() != 0 {
		t.Fatalf("flat fork-join spine ended at depth %d", cur.Depth())
	}
}

// TestAllocsForkJoin pins a fork at one allocation, its base, and a
// join at none: thread labels are values their owner stores.
func TestAllocsForkJoin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cur := Root()
	var l, r Label
	if n := testing.AllocsPerRun(1000, func() { l, r = Fork(&cur) }); n != 1 {
		t.Fatalf("a fork allocates %v objects, want 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { cur = Join(&l, &r) }); n != 0 {
		t.Fatalf("a join allocates %v objects, want 0", n)
	}
}
