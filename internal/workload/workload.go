// Package workload generates the fork-join programs and memory-access
// traces that drive this repository's tests and benchmarks: the standard
// Cilk shapes (fib, parallel loops, divide and conquer), random SP
// programs, and — for the race-detector experiments — programs with
// precisely planted determinacy races and lock-protected sharing.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/spt"
)

// Planted describes a workload with known ground truth for race
// detection.
type Planted struct {
	// Tree is the program (arbitrary SP shape; canonicalize for the
	// parallel detector and SP-bags).
	Tree *spt.Tree
	// RacyLocs are the locations on which at least one determinacy race
	// exists, sorted ascending.
	RacyLocs []int
	// SafeLocs are locations that are accessed but race-free.
	SafeLocs []int
}

// PlantConfig parameterizes PlantRaces.
type PlantConfig struct {
	// Threads is the number of threads in the generated program.
	Threads int
	// PProb is the probability an internal node is a P-node.
	PProb float64
	// RacyLocations and SafeLocations are how many locations of each
	// kind to plant.
	RacyLocations, SafeLocations int
	// ReadersPerSafeLoc is how many read-only sharers each safe
	// location receives.
	ReadersPerSafeLoc int
}

// DefaultPlantConfig returns a medium workload: 64 threads, 8 racy and 8
// safe locations.
func DefaultPlantConfig() PlantConfig {
	return PlantConfig{
		Threads:           64,
		PProb:             0.6,
		RacyLocations:     8,
		SafeLocations:     8,
		ReadersPerSafeLoc: 3,
	}
}

// PlantRaces builds a random SP program and attaches memory accesses such
// that exactly the returned RacyLocs have determinacy races:
//
//   - each racy location is written by two threads that the LCA oracle
//     says are logically parallel;
//   - each safe location is either written by two serially ordered
//     threads, or only ever read.
//
// Locations are distinct across plants, so the ground truth is exact.
func PlantRaces(cfg PlantConfig, rng *rand.Rand) Planted {
	gcfg := spt.DefaultGenConfig(cfg.Threads)
	gcfg.PProb = cfg.PProb
	tree := spt.Generate(gcfg, rng)
	o := spt.NewOracle(tree)
	threads := tree.Threads()

	findPair := func(rel spt.Relation) (*spt.Node, *spt.Node, bool) {
		for try := 0; try < 4000; try++ {
			u := threads[rng.Intn(len(threads))]
			v := threads[rng.Intn(len(threads))]
			if u == v {
				continue
			}
			if o.Relate(u, v) == rel {
				return u, v, true
			}
		}
		return nil, nil, false
	}

	loc := 0
	var racy, safe []int
	for i := 0; i < cfg.RacyLocations; i++ {
		u, v, ok := findPair(spt.Parallel)
		if !ok {
			break // tree too serial; plant fewer
		}
		u.Steps = append(u.Steps, spt.W(loc))
		v.Steps = append(v.Steps, spt.W(loc))
		racy = append(racy, loc)
		loc++
	}
	for i := 0; i < cfg.SafeLocations; i++ {
		if rng.Intn(2) == 0 {
			// Serially ordered writers.
			u, v, ok := findPair(spt.Precedes)
			if !ok {
				break
			}
			u.Steps = append(u.Steps, spt.W(loc))
			v.Steps = append(v.Steps, spt.R(loc), spt.W(loc))
		} else {
			// Read-only sharing among arbitrary threads.
			for r := 0; r < cfg.ReadersPerSafeLoc; r++ {
				u := threads[rng.Intn(len(threads))]
				u.Steps = append(u.Steps, spt.R(loc))
			}
		}
		safe = append(safe, loc)
		loc++
	}
	return Planted{Tree: tree, RacyLocs: racy, SafeLocs: safe}
}

// LockProtected builds a program in which `sharers` parallel threads all
// write one shared location, each under the same mutex — a determinacy
// race by the pure fork-join definition, but not a data race under
// lock-aware (ALL-SETS) semantics. It also plants one genuinely unlocked
// parallel write pair on a second location. Returns the tree, the
// protected location, and the unprotected (racy) location.
func LockProtected(sharers int, rng *rand.Rand) (tree *spt.Tree, protected, unprotected int) {
	protected, unprotected = 0, 1
	const mutex = 0
	leaves := make([]*spt.Node, sharers+2)
	for i := 0; i < sharers; i++ {
		l := spt.NewLeaf(fmt.Sprintf("locked%d", i), 1)
		l.Steps = []spt.Step{spt.Acq(mutex), spt.R(protected), spt.W(protected), spt.Rel(mutex)}
		leaves[i] = l
	}
	// Two unlocked parallel writers.
	for i := 0; i < 2; i++ {
		l := spt.NewLeaf(fmt.Sprintf("unlocked%d", i), 1)
		l.Steps = []spt.Step{spt.W(unprotected)}
		leaves[sharers+i] = l
	}
	rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	return spt.MustTree(spt.Par(leaves...)), protected, unprotected
}

// FibWithAccesses returns the canonical fib(n) tree where every thread
// performs `accessesPerThread` reads/writes over `locations` shared
// locations — the workload for the Corollary 6 (detector overhead)
// benchmark. With sharing limited to thread-private location ranges the
// program is race-free; with shared = true, locations are drawn globally
// and races abound.
func FibWithAccesses(n int, accessesPerThread, locations int, shared bool, rng *rand.Rand) *spt.Tree {
	tree := spt.FibTree(n, 1)
	for i, l := range tree.Threads() {
		steps := make([]spt.Step, 0, accessesPerThread)
		for k := 0; k < accessesPerThread; k++ {
			var loc int
			if shared {
				loc = rng.Intn(locations)
			} else {
				loc = i // thread-private
			}
			if rng.Intn(4) == 0 {
				steps = append(steps, spt.W(loc))
			} else {
				steps = append(steps, spt.R(loc))
			}
		}
		l.Steps = steps
	}
	return tree
}

// ReadOnlyAccesses attaches `perThread` READ steps over `locations`
// shared locations to every thread of the tree. An all-reads program is
// race-free by definition, yet every access costs the detector exactly
// one SP query (the reader-update rule compares the stored reader against
// the current thread), making it the clean workload for the Corollary 6
// O(T1) measurement: maintenance plus queries, no race-report allocation.
func ReadOnlyAccesses(tree *spt.Tree, perThread, locations int, rng *rand.Rand) *spt.Tree {
	for _, l := range tree.Threads() {
		steps := make([]spt.Step, 0, perThread)
		for k := 0; k < perThread; k++ {
			steps = append(steps, spt.R(rng.Intn(locations)))
		}
		l.Steps = steps
	}
	return tree
}

// VectorAccumulate models the parallel-loop-with-reduction workload the
// paper's introduction motivates: `width` parallel workers each read a
// private input cell and write a private output cell (race-free), then a
// final thread reads every output cell (also race-free: it runs after the
// join). If buggy is true, the final reduction thread is made parallel to
// the loop instead — every output cell races.
func VectorAccumulate(width int, buggy bool) *spt.Tree {
	workers := make([]*spt.Node, width)
	for i := range workers {
		l := spt.NewLeaf(fmt.Sprintf("work%d", i), 2)
		l.Steps = []spt.Step{spt.R(width + i), spt.W(i)}
		workers[i] = l
	}
	reduce := spt.NewLeaf("reduce", 1)
	for i := 0; i < width; i++ {
		reduce.Steps = append(reduce.Steps, spt.R(i))
	}
	loop := spt.Par(workers...)
	if buggy {
		return spt.MustTree(spt.NewP(loop, reduce))
	}
	return spt.MustTree(spt.NewS(loop, reduce))
}

// Shapes returns the named structural workloads used across benchmarks,
// all with the given per-thread cost.
func Shapes(n int, cost int64) map[string]*spt.Tree {
	// Choose a balanced-tree depth giving about n leaves.
	levels := 1
	for 1<<levels < n {
		levels++
	}
	return map[string]*spt.Tree{
		"chain":    spt.DeepChain(n, cost),
		"fan":      spt.WideFan(n, cost),
		"balanced": spt.BalancedPTree(levels, cost),
		"blocks":   spt.SyncBlockChain(max(1, n/16), 16, cost),
	}
}
