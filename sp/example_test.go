package sp_test

import (
	"fmt"

	"repro/internal/spt"
	"repro/sp"
)

// ExampleMonitor maintains the SP relation of the program a ; (b ∥ c) ; d
// from its fork and join events, with no parse tree anywhere.
func ExampleMonitor() {
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	a := m.Main()
	b, c := m.Fork(a)
	d := m.Join(b, c)

	fmt.Println("a ≺ d:", m.Precedes(a, d))
	fmt.Println("b ∥ c:", m.Parallel(b, c))
	fmt.Println("b ≺ c:", m.Precedes(b, c))
	// Output:
	// a ≺ d: true
	// b ∥ c: true
	// b ≺ c: false
}

// ExampleMonitor_race finds the determinacy race between two parallel
// writers of one location; the access sites name the threads.
func ExampleMonitor_race() {
	m := sp.MustMonitor()
	l, r := m.Fork(m.Main())
	m.WriteAt(l, 0, "w1")
	m.WriteAt(r, 0, "w2")
	m.Join(l, r)
	for _, race := range m.Report().Races {
		fmt.Println(race)
	}
	// Output:
	// write-write race on x0 between w1 and w2
}

// ExampleReplay reproduces the relations the paper quotes for its
// running example (Figures 1, 2, and 4) by replaying the example's parse
// tree as fork/join events.
func ExampleReplay() {
	tree := spt.PaperExample()
	m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithRaceDetection(false))
	ids := sp.Replay(tree, m)
	u := tree.Threads()
	fmt.Println("u1 ≺ u4:", m.Relation(ids.Leaf(u[1]), ids.Leaf(u[4])) == sp.Precedes)
	fmt.Println("u1 ∥ u6:", m.Relation(ids.Leaf(u[1]), ids.Leaf(u[6])) == sp.Parallel)
	// Output:
	// u1 ≺ u4: true
	// u1 ∥ u6: true
}

// ExampleWithLockAwareness shows the lock-aware (ALL-SETS) detector: a
// common mutex suppresses the race, disjoint mutexes do not.
func ExampleWithLockAwareness() {
	races := func(lockLeft, lockRight int) int {
		m := sp.MustMonitor(sp.WithLockAwareness(true))
		l, r := m.Fork(m.Main())
		m.Acquire(l, lockLeft)
		m.Write(l, 0)
		m.Release(l, lockLeft)
		m.Acquire(r, lockRight)
		m.Write(r, 0)
		m.Release(r, lockRight)
		m.Join(l, r)
		return len(m.Report().Races)
	}
	fmt.Println("races under a common lock:", races(1, 1))
	fmt.Println("races under disjoint locks:", races(1, 2))
	// Output:
	// races under a common lock: 0
	// races under disjoint locks: 1
}
