package depa

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/spt"
)

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
	l, r := Fork(cur)
	lEnd := labelWalk(n.Left(), l, out)
	rEnd := labelWalk(n.Right(), r, out)
	return labelWalk0(lEnd, rEnd)
}

func labelWalk0(l, r *Label) *Label { return Join(l, r) }

// TestHandExample pins the worked example P(a, S(P(c, d), e)): a is
// parallel to everything, c ∥ d, both precede e.
func TestHandExample(t *testing.T) {
	main := Root()
	a, cont := Fork(main) // a ∥ rest
	c, d := Fork(cont)
	e := Join(c, d) // continuation after c, d
	if !Parallel(a, c) || !Parallel(a, d) || !Parallel(a, e) {
		t.Fatal("a must be parallel to the whole right branch")
	}
	if !Parallel(c, d) || Parallel(d, c) == false {
		t.Fatal("c ∥ d expected")
	}
	if !Precedes(c, e) || !Precedes(d, e) || !Precedes(main, e) {
		t.Fatal("c, d, main must precede e")
	}
	if Precedes(e, c) || Precedes(e, main) {
		t.Fatal("follows direction wrong")
	}
	// Order queries: English runs a (spawned) before cont's branch;
	// Hebrew flips the fork.
	if !EnglishBefore(a, c) || HebrewBefore(a, c) {
		t.Fatal("a must be English-before and Hebrew-after c")
	}
	if !EnglishBefore(main, a) || !HebrewBefore(main, a) {
		t.Fatal("main is before everything in both orders")
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
	l1, r1 := Fork(Root())
	l2, _ := Fork(l1)
	_ = r1
	Join(l2, r1) // terminals of different forks
}

// TestRandomTreesAgainstOracle cross-checks all four query forms
// against the parse-tree LCA oracle over random programs: for every
// pair of leaves executed by distinct threads, Precedes/Parallel and
// the order queries must match the oracle (a ≺ b iff before in both
// orders, a ∥ b iff the orders disagree, and English order is the
// depth-first execution order). The last trials are spt.Par spines of
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
		labelWalk(tree.Root(), Root(), labels)

		leaves := tree.Threads()
		check := func(u, v *spt.Node) {
			lu, lv := labels[u], labels[v]
			if lu == lv {
				return // same event thread (serial block)
			}
			// English order of distinct thread labels follows leaf
			// (depth-first) order.
			if !EnglishBefore(lu, lv) || EnglishBefore(lv, lu) {
				t.Fatalf("trial %d: English order wrong for %v, %v", trial, u, v)
			}
			wantPrec := oracle.Precedes(u, v)
			wantPar := oracle.Parallel(u, v)
			if Precedes(lu, lv) != wantPrec {
				t.Fatalf("trial %d: Precedes(%v,%v) = %v, oracle %v", trial, u, v, !wantPrec, wantPrec)
			}
			if Parallel(lu, lv) != wantPar || Parallel(lv, lu) != wantPar {
				t.Fatalf("trial %d: Parallel(%v,%v) disagrees with oracle %v", trial, u, v, wantPar)
			}
			// Hebrew-before agrees with English on serial pairs and
			// flips on parallel pairs (Lemma 1).
			if wantPar {
				if HebrewBefore(lu, lv) {
					t.Fatalf("trial %d: parallel pair %v,%v must disagree across orders", trial, u, v)
				}
			} else if !HebrewBefore(lu, lv) {
				t.Fatalf("trial %d: serial pair %v,%v must agree across orders", trial, u, v)
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
	cur := Root()
	for i := 0; i < 16384; i++ {
		l, r := Fork(cur)
		spine = append(spine, l)
		cur = r
	}
	spine = append(spine, cur)

	// A serial depth-first execution: fork with probability 0.7 until
	// 1,000 levels deep, then with probability 0.3 until every branch
	// has joined, keeping every label created.
	type frame struct{ right, leftEnd *Label }
	var random []*Label
	cur = Root()
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
			l, r := Fork(cur)
			stack = append(stack, &frame{right: r})
			cur = l
			deepest = max(deepest, len(stack))
		case stack[top].leftEnd == nil:
			stack[top].leftEnd = cur
			cur = stack[top].right
		default:
			cur = Join(stack[top].leftEnd, cur)
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
// three nodes and a join one, with the parent path shared, so a spine
// of n forks costs O(n) total — not O(n²) — label memory. We verify by
// checking pointer-shared prefixes rather than counting allocations:
// the left and right children of a fork share their up pointer, and the
// join continuation shares the grandparent path.
func TestStructuralSharing(t *testing.T) {
	cur := Root()
	for i := 0; i < 64; i++ {
		l, r := Fork(cur)
		if l.up != r.up {
			t.Fatal("fork children must share their base")
		}
		if l.up.up != cur.up {
			t.Fatal("fork base must share the parent's prefix")
		}
		cont := Join(l, r)
		if cont.up != cur.up || cont.Depth() != cur.Depth() {
			t.Fatal("join continuation must return to the parent level")
		}
		cur = cont
	}
	if cur.Depth() != 0 {
		t.Fatalf("flat fork-join spine ended at depth %d", cur.Depth())
	}
}
