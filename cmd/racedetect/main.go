// Command racedetect runs the on-the-fly determinacy-race detector on a
// generated fork-join workload and reports what it finds, exercising
// every SP-maintenance backend registered in the repro/sp registry
// through the event API: a serial replay on every backend, a parallel
// replay with real goroutines on the concurrent backends, and the
// lock-aware ALL-SETS detector.
//
// Usage:
//
//	racedetect -workload {planted|vector|vector-buggy|fib|locks}
//	           [-threads n] [-seed s] [-workers p] [-backend name]
//	           [-trace file]
//
// -backend selects one registered backend by name; "all" runs every
// registered backend; "?" (or "list") prints the registry with each
// backend's capabilities and asymptotic bounds and exits. -trace
// additionally records the workload's serial event stream as a binary
// trace (replayable with `sptrace replay`).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
)

func main() {
	workloadName := flag.String("workload", "planted", "workload: planted|vector|vector-buggy|fib|locks")
	threads := flag.Int("threads", 128, "threads in the generated program")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 4, "goroutines for the parallel replay")
	backend := flag.String("backend", "all", "backend registry name, 'all', or '?' to list")
	tracePath := flag.String("trace", "", "also record the serial event stream to this trace file")
	flag.Parse()
	traceOut = *tracePath

	if *backend == "?" || *backend == "list" {
		printBackends()
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	switch *workloadName {
	case "locks":
		runLocks()
		return
	case "planted":
		cfg := workload.DefaultPlantConfig()
		cfg.Threads = *threads
		p := workload.PlantRaces(cfg, rng)
		fmt.Printf("Planted workload: %d threads, %d racy locations %v, %d safe locations\n\n",
			p.Tree.NumThreads(), len(p.RacyLocs), p.RacyLocs, len(p.SafeLocs))
		runAll(p.Tree, *backend, *workers)
	case "vector":
		tr := workload.VectorAccumulate(*threads, false)
		fmt.Printf("Vector-accumulate (correct): %d workers + reduction\n\n", *threads)
		runAll(tr, *backend, *workers)
	case "vector-buggy":
		tr := workload.VectorAccumulate(*threads, true)
		fmt.Printf("Vector-accumulate (buggy: reduction parallel to loop): %d workers\n\n", *threads)
		runAll(tr, *backend, *workers)
	case "fib":
		tr := workload.FibWithAccesses(16, 6, 128, true, rng)
		fmt.Printf("fib(16) with shared accesses: %d threads, T1=%d\n\n", tr.NumThreads(), tr.Work())
		runAll(tr, *backend, *workers)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
}

// printBackends lists the registry with capabilities and bounds.
func printBackends() {
	fmt.Println("Registered SP-maintenance backends (repro/sp):")
	fmt.Printf("%-18s %-10s %-9s %-12s %-28s %s\n",
		"name", "queries", "events", "update", "query cost", "description")
	for _, info := range sp.Backends() {
		queries := "current"
		if info.FullQueries {
			queries = "any-pair"
		}
		order := "serial"
		if info.AnyOrder {
			order = "any-order"
		}
		fmt.Printf("%-18s %-10s %-9s %-12s %-28s %s\n",
			info.Name, queries, order, info.UpdateBound, info.QueryBound, info.Description)
	}
}

// traceOut is the -trace flag: when set, runAll also records the
// workload's serial event stream there.
var traceOut string

// recordTrace writes tr's serial event stream to path via the shared
// workload.RecordTrace helper.
func recordTrace(tr *spt.Tree, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := workload.RecordTrace(tr, f); err != nil {
		return err
	}
	return f.Close()
}

// detect replays tr through a fresh monitor on the named backend —
// serially, or with real goroutines at P-nodes when workers > 0 — and
// returns the report and the elapsed time.
func detect(tr *spt.Tree, backend string, workers int, opts ...sp.Option) (sp.Report, time.Duration) {
	start := time.Now()
	m := sp.MustMonitor(append([]sp.Option{sp.WithBackend(backend)}, opts...)...)
	if workers > 0 {
		sp.ReplayParallel(tr, m, workers)
	} else {
		sp.Replay(tr, m)
	}
	return m.Report(), time.Since(start)
}

func runAll(tr *spt.Tree, backend string, workers int) {
	if traceOut != "" {
		if err := recordTrace(tr, traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "recording trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded serial event stream to %s (replay with: sptrace replay -backend all %s)\n\n",
			traceOut, traceOut)
	}
	names := sp.BackendNames()
	if backend != "all" {
		if _, ok := sp.Lookup(backend); !ok {
			fmt.Fprintf(os.Stderr, "unknown backend %q (available: %v, or '?' to list)\n",
				backend, names)
			os.Exit(2)
		}
		names = []string{backend}
	}
	row := func(label string, rep sp.Report, el time.Duration) {
		fmt.Printf("%-24s %10d %10d %10v  %v\n",
			label, len(rep.Races), len(rep.Locations), el.Round(time.Microsecond), summarize(rep.Locations))
	}
	fmt.Printf("%-24s %10s %10s %10s  %s\n", "backend", "races", "locations", "time", "raced locations")
	for _, name := range names {
		rep, el := detect(tr, name, 0)
		row(name, rep, el)
	}
	// The concurrent backends also accept the events of a genuinely
	// parallel replay: goroutines fork at P-nodes.
	var par sp.Report
	for _, name := range names {
		if info, _ := sp.Lookup(name); !info.Synchronized {
			continue
		}
		rep, el := detect(tr, name, workers)
		row(fmt.Sprintf("%s (parallel P=%d)", name, workers), rep, el)
		par = rep
	}
	if len(par.Races) > 0 {
		fmt.Println("\nFirst few races:")
		for i, r := range par.Races {
			if i == 5 {
				break
			}
			fmt.Println(" ", r)
		}
	}
}

func runLocks() {
	tr, _, unprotected := workload.LockProtected(6, rand.New(rand.NewSource(2)))
	fmt.Println("Lock workload: 6 writers sharing one mutex-protected cell,")
	fmt.Println("plus two unlocked parallel writers on a second cell.")
	if traceOut != "" {
		if err := recordTrace(tr, traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "recording trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded serial event stream to %s\n", traceOut)
	}
	det, _ := detect(tr, "sp-order", 0)
	fmt.Printf("\nDeterminacy detector flags locations %v (locks invisible to it)\n", det.Locations)
	lrep, _ := detect(tr, "sp-order", 0, sp.WithLockAwareness(true))
	fmt.Printf("Lock-aware (ALL-SETS) flags locations  %v (only the unlocked cell x%d)\n",
		lrep.Locations, unprotected)
	for _, r := range lrep.Races {
		fmt.Println(" ", r)
	}
}

func summarize(locs []uint64) string {
	if len(locs) <= 10 {
		return fmt.Sprint(locs)
	}
	parts := make([]string, 10)
	for i := 0; i < 10; i++ {
		parts[i] = fmt.Sprint(locs[i])
	}
	return "[" + strings.Join(parts, " ") + " …]"
}
