// Lockset: the lock-aware race detector (ALL-SETS style) on top of
// SP-order — the "more sophisticated data-race detectors, for example,
// those that use locks" the paper's introduction mentions.
//
// Six parallel threads update a shared counter under a common mutex: the
// pure determinacy-race detector flags them (they ARE nondeterministic in
// timing), but the lock-aware detector recognizes the common lock and
// stays quiet. A second, unprotected cell demonstrates a true bug both
// detectors agree on.
//
// Run with:
//
//	go run ./examples/lockset
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
	"repro/sp"
)

func main() {
	tree, protectedLoc, unprotectedLoc := workload.LockProtected(6, rand.New(rand.NewSource(7)))
	fmt.Printf("program: %d fully parallel threads\n", tree.NumThreads())
	fmt.Printf("  x%d: read-modify-write under mutex m0 by 6 threads\n", protectedLoc)
	fmt.Printf("  x%d: unsynchronized writes by 2 threads\n\n", unprotectedLoc)

	det := sp.MustMonitor(sp.WithBackend("sp-order"))
	sp.Replay(tree, det)
	fmt.Printf("determinacy detector (locks invisible): flags %v\n", det.Report().Locations)

	lock := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithLockAwareness(true))
	sp.Replay(tree, lock)
	rep := lock.Report()
	fmt.Printf("lock-aware ALL-SETS detector:           flags %v\n\n", rep.Locations)
	for _, r := range rep.Races {
		fmt.Println("  ", r)
	}

	// Partial protection is not protection: disjoint lock sets race.
	m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithLockAwareness(true))
	a, b := m.Fork(m.Main())
	m.Acquire(a, 1)
	m.WriteAt(a, 9, "holderOfM1")
	m.Release(a, 1)
	m.Acquire(b, 2)
	m.WriteAt(b, 9, "holderOfM2")
	m.Release(b, 2)
	m.Join(a, b)
	fmt.Println("\ntwo writers holding DIFFERENT mutexes on x9:")
	for _, r := range m.Report().Races {
		fmt.Println("  ", r)
	}
}
