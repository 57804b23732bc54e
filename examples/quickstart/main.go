// Quickstart: report a fork-join program's structure to an sp.Monitor as
// it executes, and let SP-order maintain the series-parallel relation
// between its threads on the fly.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/sp"
)

func main() {
	// A small pipeline: load the input, process two halves in parallel
	// (each half forks a nested pair of workers), then merge.
	//
	//	load ; ( (w0 ∥ w1) ; combineA  ∥  (w2 ∥ w3) ; combineB ) ; merge
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	names := map[sp.ThreadID]string{}
	load := m.Main()
	// execute names a thread as it starts running (a serial left-to-right
	// execution, as in a serial race detector) and queries the relation
	// to load on the fly.
	execute := func(t sp.ThreadID, name string) sp.ThreadID {
		names[t] = name
		fmt.Printf("executing %-9s", name)
		if t != load {
			fmt.Printf("  load≺%s=%v", name, m.Precedes(load, t))
		}
		fmt.Println()
		return t
	}
	execute(load, "load")
	halfA, halfB := m.Fork(load)
	w0, w1 := m.Fork(halfA)
	execute(w0, "worker0")
	execute(w1, "worker1")
	combineA := execute(m.Join(w0, w1), "combineA")
	w2, w3 := m.Fork(halfB)
	execute(w2, "worker2")
	execute(w3, "worker3")
	combineB := execute(m.Join(w2, w3), "combineB")
	merge := execute(m.Join(combineA, combineB), "merge")

	fmt.Println("\nqueries after the run:")
	pairs := [][2]sp.ThreadID{
		{w0, w1},          // parallel siblings
		{w0, combineA},    // worker precedes its combine
		{w0, w2},          // parallel across halves
		{combineA, merge}, // combine precedes merge
		{load, merge},     // ends of the pipeline
	}
	for _, p := range pairs {
		u, v := names[p[0]], names[p[1]]
		switch m.Relation(p[0], p[1]) {
		case sp.Precedes:
			fmt.Printf("  %-9s ≺ %s (series)\n", u, v)
		case sp.Follows:
			fmt.Printf("  %-9s ≻ %s (series, reversed)\n", u, v)
		case sp.Parallel:
			fmt.Printf("  %-9s ∥ %s (logically parallel)\n", u, v)
		}
	}
}
