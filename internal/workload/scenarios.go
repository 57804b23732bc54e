package workload

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/spt"
	"repro/sp"
)

// Scenario is one named, deterministic trace-emitting workload shape:
// Build(threads, seed) always returns the same program for the same
// arguments, so recording its serial replay yields a byte-identical
// trace every time — the property the differential-replay harness and
// the trace-driven benchmarks rely on.
type Scenario struct {
	// Name is the CLI-facing key (sptrace record -workload) and the
	// name bench/'s replay workloads select a scenario by.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Build generates the program with about `threads` threads.
	Build func(threads int, seed int64) *spt.Tree
}

// Scenarios returns the registered workload shapes in listing order:
// a balanced fork-join tree with shared accesses, a race-free
// producer/consumer pipeline, a lock-heavy mutex workload, a
// read-mostly workload, and the planted-race generator.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "forkjoin",
			Description: "balanced fork-join tree, mixed reads/writes over shared locations (races abound)",
			Build:       buildForkJoin,
		},
		{
			Name:        "pipeline",
			Description: "staged producer/consumer pipeline, each stage a parallel block reading the previous stage's cells (race-free)",
			Build:       buildPipeline,
		},
		{
			Name:        "lockheavy",
			Description: "parallel workers hammering shared cells under a few mutexes (determinacy races, mostly lock-protected)",
			Build:       buildLockHeavy,
		},
		{
			Name:        "readmostly",
			Description: "random SP program, dense shared reads with occasional writes",
			Build:       buildReadMostly,
		},
		{
			Name:        "planted",
			Description: "random SP program with precisely planted racy and race-free locations",
			Build:       buildPlanted,
		},
		{
			Name:        "forkheavy",
			Description: "deep fork spine, structural events dominate, sparse accesses over a few shared racy cells",
			Build:       buildForkHeavy,
		},
		{
			Name:        "channel-pipeline",
			Description: "fully parallel stages ordered only by channel-style Put/Get edges (race-free through the edges alone)",
			Build:       buildChannelPipeline,
		},
		{
			Name:        "future-dag",
			Description: "parallel workers joined by a random future DAG: each worker Gets a subset of earlier workers' Puts before reading their cells",
			Build:       buildFutureDAG,
		},
	}
}

// RecordTrace replays tree once through a recording monitor (sp-order
// unless opts select otherwise) and writes its binary event trace to
// w, returning the live run's report. It is the one record path shared
// by the cmd tools and the differential harness.
func RecordTrace(tree *spt.Tree, w io.Writer, opts ...sp.Option) (sp.Report, error) {
	opts = append([]sp.Option{sp.WithBackend("sp-order")},
		append(append([]sp.Option(nil), opts...), sp.WithTrace(w))...)
	m, err := sp.NewMonitor(opts...)
	if err != nil {
		return sp.Report{}, err
	}
	sp.Replay(tree, m)
	rep := m.Report()
	if err := m.TraceErr(); err != nil {
		return rep, fmt.Errorf("workload: writing trace: %w", err)
	}
	return rep, nil
}

// ScenarioByName looks a scenario up by its CLI name.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// ScenarioNames returns the scenario keys in listing order.
func ScenarioNames() []string {
	scs := Scenarios()
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	return names
}

// buildForkJoin is a balanced binary fork-join tree whose leaves mix
// reads and writes over a small shared address space — the classic
// divide-and-conquer shape with abundant determinacy races.
func buildForkJoin(threads int, seed int64) *spt.Tree {
	levels := 1
	for 1<<levels < threads {
		levels++
	}
	tree := spt.BalancedPTree(levels, 1)
	rng := rand.New(rand.NewSource(seed))
	const locations = 64
	for _, l := range tree.Threads() {
		steps := make([]spt.Step, 0, 6)
		for k := 0; k < 6; k++ {
			loc := rng.Intn(locations)
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

// buildPipeline is a serial chain of parallel stages: worker j of
// stage k reads two cells its predecessors in stage k-1 wrote and
// writes its own output cell. Stages are serially ordered, so the
// program is race-free — the zero-race signature is itself a useful
// differential check.
func buildPipeline(threads int, seed int64) *spt.Tree {
	const width = 8
	stages := max(1, threads/width)
	cell := func(stage, j int) int { return stage*width + j }
	var chain *spt.Node
	for k := 0; k < stages; k++ {
		workers := make([]*spt.Node, width)
		for j := 0; j < width; j++ {
			w := spt.NewLeaf(fmt.Sprintf("s%dw%d", k, j), 1)
			if k > 0 {
				w.Steps = append(w.Steps,
					spt.R(cell(k-1, j)), spt.R(cell(k-1, (j+1)%width)))
			}
			w.Steps = append(w.Steps, spt.W(cell(k, j)))
			workers[j] = w
		}
		stage := spt.Par(workers...)
		if chain == nil {
			chain = stage
		} else {
			chain = spt.NewS(chain, stage)
		}
	}
	_ = seed // the pipeline is fully structural; seed kept for the Scenario signature
	return spt.MustTree(chain)
}

// buildLockHeavy is a flat parallel block of workers, each locking one
// of a few mutexes around a read-modify-write of one of a few shared
// cells. Every conflicting pair is a determinacy race (the pure
// fork-join detector ignores locks); under WithLockAwareness only the
// pairs that happen to use different mutexes on the same cell remain.
func buildLockHeavy(threads int, seed int64) *spt.Tree {
	const mutexes, cells = 4, 8
	rng := rand.New(rand.NewSource(seed))
	n := max(2, threads)
	leaves := make([]*spt.Node, n)
	for i := 0; i < n; i++ {
		mu := rng.Intn(mutexes)
		cell := rng.Intn(cells)
		l := spt.NewLeaf(fmt.Sprintf("w%d", i), 1)
		l.Steps = []spt.Step{spt.Acq(mu), spt.R(cell), spt.W(cell), spt.Rel(mu)}
		leaves[i] = l
	}
	return spt.MustTree(spt.Par(leaves...))
}

// buildReadMostly is a random SP program whose threads mostly read a
// shared address space, with a sparse sprinkling of writes — the
// query-dominated workload (every read of a previously read location
// costs the detector one SP query).
func buildReadMostly(threads int, seed int64) *spt.Tree {
	rng := rand.New(rand.NewSource(seed))
	cfg := spt.DefaultGenConfig(max(2, threads))
	cfg.PProb = 0.6
	tree := spt.Generate(cfg, rng)
	const locations = 64
	for _, l := range tree.Threads() {
		steps := make([]spt.Step, 0, 12)
		for k := 0; k < 12; k++ {
			loc := rng.Intn(locations)
			if rng.Intn(16) == 0 {
				steps = append(steps, spt.W(loc))
			} else {
				steps = append(steps, spt.R(loc))
			}
		}
		l.Steps = steps
	}
	return tree
}

// buildForkHeavy is a deep fork spine whose threads mostly carry NO
// accesses: the event stream is dominated by Fork/Join, the workload
// that separates backends by structural-update cost (batched lazy OM
// insertion for sp-hybrid, lock-free label derivation for depa, OM
// splay maintenance for sp-order). A sparse eighth of the threads
// write one of a few shared cells — racy across the parallel spine —
// or read a disjoint range, so race detection stays exercised without
// letting accesses dominate.
func buildForkHeavy(threads int, seed int64) *spt.Tree {
	rng := rand.New(rand.NewSource(seed))
	n := max(2, threads)
	const sharedCells = 4
	cur := spt.NewLeaf(fmt.Sprintf("f%d", n-1), 1)
	for i := n - 2; i >= 0; i-- {
		l := spt.NewLeaf(fmt.Sprintf("f%d", i), 1)
		switch rng.Intn(8) {
		case 0:
			l.Steps = []spt.Step{spt.W(rng.Intn(sharedCells))}
		case 1:
			l.Steps = []spt.Step{spt.R(sharedCells + rng.Intn(16))}
		}
		// Mostly parallel compositions (the spine stays fork-heavy), with
		// occasional serial links so both OM insert rules are exercised.
		if rng.Intn(4) == 0 {
			cur = spt.NewS(l, cur)
		} else {
			cur = spt.NewP(l, cur)
		}
	}
	return spt.MustTree(cur)
}

// buildChannelPipeline is the tentpole workload: every stage runs in
// ONE parallel block — the SP relation alone says stage k+1's reads
// race with stage k's writes — and only the Put/Get edges (a channel
// handoff per stage boundary) order them. A detector that ignores the
// edges reports every cross-stage pair; one that incorporates them
// reports nothing. A Put publishes only the putting thread's own
// history, so each worker Puts its own future after writing its cell,
// and stage k+1's worker j Gets exactly the futures of the stage-k
// workers whose cells it reads. Gets follow their Puts in English
// order because stages are listed left to right in the parallel block.
func buildChannelPipeline(threads int, seed int64) *spt.Tree {
	const width = 4
	stages := max(2, threads/width)
	cell := func(stage, j int) int { return stage*width + j }
	nodes := make([]*spt.Node, 0, stages*width)
	for k := 0; k < stages; k++ {
		for j := 0; j < width; j++ {
			w := spt.NewLeaf(fmt.Sprintf("s%dw%d", k, j), 1)
			if k > 0 {
				w.Steps = append(w.Steps,
					spt.GetStep(cell(k-1, j)), spt.R(cell(k-1, j)),
					spt.GetStep(cell(k-1, (j+1)%width)), spt.R(cell(k-1, (j+1)%width)))
			}
			w.Steps = append(w.Steps, spt.W(cell(k, j)), spt.PutStep(cell(k, j)))
			nodes = append(nodes, w)
		}
	}
	_ = seed // fully structural
	return spt.MustTree(spt.Par(nodes...))
}

// buildFutureDAG joins one flat parallel block into a random DAG of
// future edges: worker j writes its cell, Puts future j, and first
// Gets a random subset of futures i < j, reading cell i after each.
// Every cross-worker read is covered by an edge, so the program is
// race-free exactly when the backend honors Put/Get — and the English
// order constraint (Get after Put) holds because worker i sits to the
// left of worker j in the parallel block.
func buildFutureDAG(threads int, seed int64) *spt.Tree {
	rng := rand.New(rand.NewSource(seed))
	n := max(2, threads)
	leaves := make([]*spt.Node, n)
	for j := 0; j < n; j++ {
		l := spt.NewLeaf(fmt.Sprintf("w%d", j), 1)
		deps := 0
		if j > 0 {
			deps = rng.Intn(min(j, 3) + 1)
		}
		seen := map[int]bool{}
		for d := 0; d < deps; d++ {
			i := rng.Intn(j)
			if seen[i] {
				continue
			}
			seen[i] = true
			l.Steps = append(l.Steps, spt.GetStep(i), spt.R(i))
		}
		l.Steps = append(l.Steps, spt.W(j), spt.PutStep(j))
		leaves[j] = l
	}
	return spt.MustTree(spt.Par(leaves...))
}

// buildPlanted reuses PlantRaces: a random SP program with exact
// ground truth (racy and race-free locations).
func buildPlanted(threads int, seed int64) *spt.Tree {
	cfg := DefaultPlantConfig()
	cfg.Threads = max(2, threads)
	return PlantRaces(cfg, rand.New(rand.NewSource(seed))).Tree
}
