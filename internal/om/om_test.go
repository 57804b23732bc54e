package om

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reference is a naive O(n) order-maintenance implementation used as the
// model in property tests: a plain slice.
type reference struct {
	items []*Item
}

func (r *reference) indexOf(x *Item) int {
	for i, it := range r.items {
		if it == x {
			return i
		}
	}
	return -1
}

func (r *reference) insertAfter(x, y *Item) {
	i := r.indexOf(x)
	r.items = append(r.items, nil)
	copy(r.items[i+2:], r.items[i+1:])
	r.items[i+1] = y
}

func (r *reference) insertBefore(x, y *Item) {
	i := r.indexOf(x)
	r.items = append(r.items, nil)
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = y
}

func (r *reference) precedes(x, y *Item) bool { return r.indexOf(x) < r.indexOf(y) }

func TestInsertFirstOnly(t *testing.T) {
	l := NewList()
	a := l.InsertFirst()
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	if l.Precedes(a, a) {
		t.Fatal("Precedes(a,a) must be false")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFirstPanicsWhenNonEmpty(t *testing.T) {
	l := NewList()
	l.InsertFirst()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.InsertFirst()
}

func TestInsertAfterBasicOrder(t *testing.T) {
	l := NewList()
	a := l.InsertFirst()
	b := l.InsertAfter(a)
	c := l.InsertAfter(b)
	d := l.InsertAfter(a) // order: a d b c
	cases := []struct {
		x, y *Item
		want bool
	}{
		{a, b, true}, {a, c, true}, {a, d, true},
		{d, b, true}, {d, c, true}, {b, c, true},
		{b, a, false}, {c, a, false}, {d, a, false},
		{b, d, false}, {c, d, false}, {c, b, false},
	}
	for i, tc := range cases {
		if got := l.Precedes(tc.x, tc.y); got != tc.want {
			t.Errorf("case %d: Precedes = %v, want %v", i, got, tc.want)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBeforeBasicOrder(t *testing.T) {
	l := NewList()
	a := l.InsertFirst()
	b := l.InsertBefore(a)
	c := l.InsertBefore(b) // order: c b a
	if !l.Precedes(c, b) || !l.Precedes(b, a) || !l.Precedes(c, a) {
		t.Fatalf("order wrong: %s", l.DebugString())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBucketSplitKeepsOrder(t *testing.T) {
	l := NewList()
	items := []*Item{l.InsertFirst()}
	// Force many splits by appending far past one bucket's capacity.
	for i := 0; i < BucketCap*8; i++ {
		items = append(items, l.InsertAfter(items[len(items)-1]))
	}
	for i := 0; i < len(items)-1; i++ {
		if !l.Precedes(items[i], items[i+1]) {
			t.Fatalf("order violated at %d", i)
		}
	}
	if l.Splits == 0 {
		t.Fatal("expected at least one bucket split")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, l.DebugString())
	}
}

func TestAdversarialSameSpotInserts(t *testing.T) {
	// Always inserting immediately after the same item exhausts local
	// gaps as fast as possible, exercising relabels and splits.
	l := NewList()
	a := l.InsertFirst()
	var last *Item
	for i := 0; i < 10000; i++ {
		it := l.InsertAfter(a)
		if last != nil && !l.Precedes(it, last) {
			t.Fatalf("new item should precede previous insert (insert-after-same-spot reverses)")
		}
		last = it
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if l.Relabels == 0 {
		t.Fatal("expected relabels under adversarial inserts")
	}
}

func TestAdversarialFrontInserts(t *testing.T) {
	l := NewList()
	x := l.InsertFirst()
	for i := 0; i < 10000; i++ {
		y := l.InsertBefore(x)
		if !l.Precedes(y, x) {
			t.Fatal("InsertBefore order violated")
		}
		x = y
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOpsAgainstReference drives the list with a random op sequence
// and checks every pairwise order against the slice-based model.
func TestRandomOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		l := NewList()
		ref := &reference{}
		first := l.InsertFirst()
		ref.items = append(ref.items, first)
		for op := 0; op < 500; op++ {
			x := ref.items[rng.Intn(len(ref.items))]
			if rng.Intn(2) == 0 {
				y := l.InsertAfter(x)
				ref.insertAfter(x, y)
			} else {
				y := l.InsertBefore(x)
				ref.insertBefore(x, y)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Verify a sample of pairs.
		for k := 0; k < 2000; k++ {
			i, j := rng.Intn(len(ref.items)), rng.Intn(len(ref.items))
			x, y := ref.items[i], ref.items[j]
			want := i < j
			if x == y {
				want = false
			}
			if got := l.Precedes(x, y); got != want {
				t.Fatalf("trial %d: Precedes(%d,%d) = %v, want %v", trial, i, j, got, want)
			}
		}
		// Full order must match.
		got := l.Items()
		if len(got) != len(ref.items) {
			t.Fatalf("trial %d: lengths differ", trial)
		}
		for i := range got {
			if got[i] != ref.items[i] {
				t.Fatalf("trial %d: order differs at %d", trial, i)
			}
		}
	}
}

// TestQuickTransitivity property: for random insert sequences, Precedes is
// a strict total order (irreflexive, antisymmetric, transitive on a
// sample).
func TestQuickTransitivity(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewList()
		items := []*Item{l.InsertFirst()}
		for i := 0; i < int(nOps)+3; i++ {
			x := items[rng.Intn(len(items))]
			if rng.Intn(2) == 0 {
				items = append(items, l.InsertAfter(x))
			} else {
				items = append(items, l.InsertBefore(x))
			}
		}
		for k := 0; k < 50; k++ {
			a := items[rng.Intn(len(items))]
			b := items[rng.Intn(len(items))]
			c := items[rng.Intn(len(items))]
			if l.Precedes(a, a) {
				return false
			}
			if a != b && l.Precedes(a, b) == l.Precedes(b, a) {
				return false
			}
			if l.Precedes(a, b) && l.Precedes(b, c) && !l.Precedes(a, c) {
				return false
			}
		}
		return l.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAmortizedRelabelCostBounded(t *testing.T) {
	// Total relabels should be O(n) for n inserts (amortized O(1)); use
	// a generous constant to avoid flakiness while still catching
	// quadratic blowups.
	l := NewList()
	a := l.InsertFirst()
	const n = 200000
	rng := rand.New(rand.NewSource(7))
	items := []*Item{a}
	for i := 0; i < n; i++ {
		items = append(items, l.InsertAfter(items[rng.Intn(len(items))]))
	}
	perOp := float64(l.Relabels) / float64(n)
	if perOp > 8 {
		t.Fatalf("amortized relabels per insert = %.2f, want ≤ 8", perOp)
	}
}

// TestAllocsInsert pins an insertion into either list at no object of
// its own: items are carved from pages, and a page or a split's new
// bucket costs well under one allocation per insertion.
func TestAllocsInsert(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	l := NewList()
	x := l.InsertFirst()
	if n := testing.AllocsPerRun(1000, func() { x = l.InsertAfter(x) }); n != 0 {
		t.Fatalf("List.InsertAfter allocates %v objects, want 0", n)
	}
	c := NewConcurrent()
	y := c.InsertFirst()
	if n := testing.AllocsPerRun(1000, func() { y = c.InsertAfter(y) }); n != 0 {
		t.Fatalf("Concurrent.InsertAfter allocates %v objects, want 0", n)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
