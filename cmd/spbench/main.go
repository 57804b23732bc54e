// Command spbench regenerates the paper's tables and the quantitative
// claims of its theorems as text tables, plus the scaling of one live
// monitor as goroutines grow. Figure 3 and Theorem 5 time every
// registered sp backend as a bare maintainer (a structure-only
// fork/join walk); Corollary 6 replays programs with accesses through
// an sp.Monitor; Theorem 10 and Section 7 run the scheduler-coupled
// SP-hybrid, the only source of steal, split, and retry statistics.
// Replay and ingest throughput are measured by the benchmark in bench/.
//
// Usage:
//
//	spbench [-table fig3|t5|c6|t10|s7|concurrent|all] [-quick] [-json]
//
// -json emits only -table concurrent, as the JSON document committed
// as BENCH_concurrent.json. An unknown -table, or -json with any other
// table, exits with status 2.
//
// On single-CPU hosts the Theorem 10 experiment measures overhead scaling
// (steals, retries, lock traffic) rather than wall-clock speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/race"
	"repro/internal/sphybrid"
	"repro/internal/spt"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/sp"
	"repro/sp/metrics"
)

// benchMetrics is the instrumentation excerpt embedded in every -json
// benchmark row: backend-internal accounting from the sp/metrics
// registry the measured monitors publish into at Report. Ratios are
// computed over the registry's whole accumulation (all repetitions of
// the row), so they are invariant to the repetition count.
type benchMetrics struct {
	// DrainsPerEvent is pending-queue drains (one shared insertion-lock
	// acquisition each) per monitored event — sp-hybrid's amortization
	// made visible; omitted for backends without a batched global tier.
	DrainsPerEvent float64 `json:"drainsPerEvent,omitempty"`
	// MaxShardImbalance is max/mean of per-shard shadow-memory access
	// counts (1 = perfectly balanced address hashing).
	MaxShardImbalance float64 `json:"maxShardImbalance,omitempty"`
	// PendingHighwater is the deepest the pending structural-event
	// queue grew before a drain.
	PendingHighwater float64 `json:"pendingHighwater,omitempty"`
}

// benchMetricsFrom distills a registry snapshot into the row excerpt,
// returning nil when the snapshot carries none of the fields (e.g. a
// backend with no instrumented internals).
func benchMetricsFrom(snap metrics.Snapshot) *benchMetrics {
	bm := &benchMetrics{}
	if ev := snap.Sum("sp_monitor_events_total"); ev > 0 {
		bm.DrainsPerEvent = snap.Sum("sp_om_drains_total") / ev
	}
	if v, ok := snap.Value("sp_shadow_shard_imbalance"); ok {
		bm.MaxShardImbalance = v
	}
	if v, ok := snap.Value("sp_om_pending_highwater"); ok {
		bm.PendingHighwater = v
	}
	if *bm == (benchMetrics{}) {
		return nil
	}
	return bm
}

var (
	quick          = flag.Bool("quick", false, "smaller workloads, fewer repetitions")
	backendFlag    = flag.String("backend", "all", "restrict the Figure 3, Theorem 5, and Corollary 6 tables to one registered backend")
	jsonFlag       = flag.Bool("json", false, "emit -table concurrent as JSON (the BENCH_concurrent.json schema)")
	goroutinesFlag = flag.String("goroutines", "", "comma-separated goroutine counts for -table concurrent (default: powers of two up to max(4, NumCPU), plus NumCPU)")
)

// tables lists the -table experiments in the order -table all runs them.
var tables = []struct {
	name string
	run  func()
}{
	{"fig3", fig3},
	{"t5", theorem5},
	{"c6", corollary6},
	{"t10", theorem10},
	{"s7", section7},
	{"concurrent", func() { concurrentBench(false) }},
}

const tableNames = "fig3|t5|c6|t10|s7|concurrent|all"

func main() {
	table := flag.String("table", "all", "which experiment: "+tableNames)
	flag.Parse()

	var run []func()
	for _, t := range tables {
		if *table == t.name || *table == "all" {
			run = append(run, t.run)
		}
	}
	switch {
	case len(run) == 0:
		usageError("unknown table %q", *table)
	case *jsonFlag && *table != "concurrent":
		usageError("-json emits only -table concurrent")
	case *jsonFlag:
		concurrentBench(true)
		return
	}
	fmt.Printf("spbench: GOMAXPROCS=%d NumCPU=%d quick=%v\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *quick)
	for _, f := range run {
		f()
	}
}

// usageError reports a bad -table or -json on stderr, naming the valid
// tables, and exits with status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spbench: %s (tables: %s)\n", fmt.Sprintf(format, args...), tableNames)
	os.Exit(2)
}

// timeIt runs f repeatedly and returns the best wall time. A GC cycle
// runs first so one experiment's garbage is not charged to the next.
func timeIt(reps int, f func()) time.Duration {
	runtime.GC()
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best
}

func reps() int {
	if *quick {
		return 2
	}
	return 3
}

// scalingTimes measures run(i) for each of n inputs of growing size and
// returns, per input, the best wall time of one call. Each measurement
// times rounds(i) back-to-back calls, so small inputs cover about the
// same work as the largest; the passes visit the inputs round-robin, so
// a transient slowdown of the host hits every size rather than skewing
// one; and the garbage collector is paused while timing (its cost
// tracks the live heap, not the algorithm). All three keep noise out of
// the growth-exponent fits.
func scalingTimes(n int, rounds func(i int) int, run func(i int)) []float64 {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	best := make([]float64, n)
	for pass := 0; pass < 5; pass++ {
		for i := range best {
			runtime.GC()
			start := time.Now()
			for r := 0; r < rounds(i); r++ {
				run(i)
			}
			el := float64(time.Since(start).Nanoseconds()) / float64(rounds(i))
			if pass == 0 || el < best[i] {
				best[i] = el
			}
		}
	}
	return best
}

// printScaling prints one row per input size and one column per
// backend, rendering each measurement with cell.
func printScaling(sizeHdr, unit string, sizes, backends []string, cell func(b string, i int) string) {
	fmt.Printf("%12s", sizeHdr)
	for _, b := range backends {
		fmt.Printf(" %18s", b)
	}
	fmt.Printf(" (%s)\n", unit)
	for i, size := range sizes {
		fmt.Printf("%12s", size)
		for _, b := range backends {
			fmt.Printf(" %18s", cell(b, i))
		}
		fmt.Println()
	}
}

// selectedBackends returns the registered backends the -backend flag
// selects, exiting with status 2 on an unknown name.
func selectedBackends() []string {
	if *backendFlag == "all" {
		return sp.BackendNames()
	}
	if _, ok := sp.Lookup(*backendFlag); !ok {
		fmt.Fprintf(os.Stderr, "unknown backend %q (available: %v)\n", *backendFlag, sp.BackendNames())
		os.Exit(2)
	}
	return []string{*backendFlag}
}

// newMaintainer instantiates a registered backend as a bare maintainer.
func newMaintainer(name string) sp.Maintainer {
	m, _, err := sp.NewMaintainer(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return m
}

// walkTree drives a bare maintainer through tree t's fork/join structure
// alone — no Monitor, accesses, or race detection — in the serial
// depth-first event order every backend accepts: Fork and Join at each
// P-node, Begin at a thread's first action (its first leaf or its Fork),
// as sp.Replay emits them. When leafIDs is non-nil it records each leaf's
// event thread by node ID. It returns the number of event threads; the
// last one allocated is the walk's final thread.
func walkTree(m sp.Maintainer, t *spt.Tree, leafIDs []sp.ThreadID) int {
	next := sp.ThreadID(1)
	// rec walks n on thread cur; begun reports whether cur has acted.
	var rec func(n *spt.Node, cur sp.ThreadID, begun bool) (sp.ThreadID, bool)
	rec = func(n *spt.Node, cur sp.ThreadID, begun bool) (sp.ThreadID, bool) {
		switch n.Kind() {
		case spt.Leaf:
			if !begun {
				m.Begin(cur)
			}
			if leafIDs != nil {
				leafIDs[n.ID] = cur
			}
			return cur, true
		case spt.SNode:
			cur, begun = rec(n.Left(), cur, begun)
			return rec(n.Right(), cur, begun)
		default: // PNode
			if !begun {
				m.Begin(cur)
			}
			l, r := next, next+1
			next += 2
			m.Fork(cur, l, r)
			a, _ := rec(n.Left(), l, false)
			b, _ := rec(n.Right(), r, false)
			c := next
			next++
			m.Join(a, b, c)
			return c, false
		}
	}
	m.Start(0)
	rec(t.Root(), 0, false)
	return int(next)
}

// retainedWords walks t on a fresh instance of the named backend and
// returns the heap the finished structure retains, in 8-byte words per
// event thread.
func retainedWords(name string, t *spt.Tree) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := newMaintainer(name)
	threads := walkTree(m, t, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 8 / float64(threads)
}

// fig3 reproduces the comparison table of Figure 3 — space per thread,
// time per thread creation, time per query — for every registered
// backend, each driven as a bare maintainer by a structure-only walk.
func fig3() {
	fmt.Println("=== Figure 3: SP-maintenance algorithms (bare maintainers, structure-only walk) ===")
	n, fan, qn := 20000, 2000, 200000
	if *quick {
		n, fan, qn = 4000, 1000, 20000
	}
	cfg := spt.DefaultGenConfig(n)
	cfg.PProb = 0.7
	tr := spt.Generate(cfg, rand.New(rand.NewSource(1)))
	// A wide fan nests every fork inside the previous one: the worst
	// case for the labelers' Θ(f)/Θ(d) label length.
	deep := spt.WideFan(fan, 1)
	leaves := deep.Threads()
	fmt.Printf("creation: random program, %d threads; space and queries: fan of %d (nesting depth %d)\n",
		n, fan, fan-1)
	fmt.Printf("%-18s %18s %18s %14s\n", "backend", "space (words/thr)", "creation (ns/thr)", "query (ns)")
	for _, name := range selectedBackends() {
		info, _ := sp.Lookup(name)
		el := timeIt(reps(), func() { walkTree(newMaintainer(name), tr, nil) })
		words := retainedWords(name, deep)

		m := newMaintainer(name)
		ids := make([]sp.ThreadID, deep.Len())
		// Queries go through the handles, all bound before the timed
		// loop. Backends without FullQueries answer only against the
		// current thread: after the walk, the final thread (the last
		// allocated).
		cur := m.ThreadRelative(sp.ThreadID(walkTree(m, deep, ids) - 1))
		rels := make([]sp.CurrentRelative, len(leaves))
		for i, l := range leaves {
			rels[i] = cur
			if info.FullQueries {
				rels[i] = m.ThreadRelative(ids[l.ID])
			}
		}
		rng := rand.New(rand.NewSource(2))
		pick := func() sp.ThreadID { return ids[leaves[rng.Intn(len(leaves))].ID] }
		q := timeIt(reps(), func() {
			for i := 0; i < qn; i++ {
				b := rels[rng.Intn(len(rels))]
				b.Orders(pick())
			}
		})
		fmt.Printf("%-18s %18.1f %18.1f %14.1f\n", name, words,
			float64(el.Nanoseconds())/float64(n), float64(q.Nanoseconds())/float64(qn))
	}
	fmt.Println("(space is heap retained after the walk: every backend allocates per event thread;")
	fmt.Println(" paper: EH space Θ(f), OS space Θ(d), SP-bags/SP-order Θ(1); queries Θ(f)/Θ(d)/Θ(α)/Θ(1))")
	fmt.Println()
}

// theorem5 checks that SP maintenance over a fork/join stream is O(n):
// the structure-only walk of every backend, timed against n
// (scalingTimes). Every size exceeds the per-core L2 cache of today's
// hosts, so the fit compares like with like.
func theorem5() {
	fmt.Println("=== Theorem 5: SP maintenance is O(n) (structure-only walk) ===")
	ns, perMeasure := []int{20000, 60000, 200000, 600000}, 600000
	if *quick {
		ns, perMeasure = []int{20000, 60000, 200000}, 200000
	}
	backends := selectedBackends()
	trees := make([]*spt.Tree, len(ns))
	xs := make([]float64, len(ns))
	sizes := make([]string, len(ns))
	for i, n := range ns {
		trees[i] = spt.Generate(spt.DefaultGenConfig(n), rand.New(rand.NewSource(int64(n))))
		xs[i], sizes[i] = float64(n), strconv.Itoa(n)
	}
	times := map[string][]float64{}
	for _, b := range backends {
		times[b] = scalingTimes(len(ns),
			func(i int) int { return max(1, perMeasure/ns[i]) },
			func(i int) { walkTree(newMaintainer(b), trees[i], nil) })
	}
	printScaling("n (threads)", "ns/thread", sizes, backends, func(b string, i int) string {
		return fmt.Sprintf("%.1f", times[b][i]/xs[i])
	})
	fmt.Println("growth exponent of time vs n (1.0 = linear):")
	for _, b := range backends {
		fmt.Printf("  %-18s %.3f   ratio spread: %.2f\n", b,
			stats.GrowthExponent(xs, times[b]), stats.RatioSpread(xs, times[b]))
	}
	fmt.Println()
}

// corollary6 checks race detection is O(T1) with SP-order and compares
// every backend registered in the repro/sp registry, driven through the
// event API by replaying each program into a Monitor (-backend restricts
// to one).
func corollary6() {
	fmt.Println("=== Corollary 6: race detection in O(T1) ===")
	fibs := []int{12, 15, 18, 21}
	if *quick {
		fibs = []int{10, 13, 16}
	}
	backends := selectedBackends()
	// All-reads sharing: race-free, but every access costs one SP query,
	// so the measurement is maintenance + queries without race-report
	// allocation noise.
	trees := make([]*spt.Tree, len(fibs))
	t1s := make([]float64, len(fibs))
	sizes := make([]string, len(fibs))
	for i, n := range fibs {
		trees[i] = workload.ReadOnlyAccesses(spt.FibTree(n, 1), 8, 256, rand.New(rand.NewSource(3)))
		t1s[i] = float64(trees[i].Work() + int64(8*trees[i].NumThreads()))
		sizes[i] = fmt.Sprintf("fib(%d)", n)
	}
	times := map[string][]float64{}
	for _, b := range backends {
		times[b] = scalingTimes(len(fibs),
			func(i int) int { return max(1, int(t1s[len(t1s)-1]/t1s[i])) },
			func(i int) {
				m := sp.MustMonitor(sp.WithBackend(b))
				sp.Replay(trees[i], m)
				m.Report()
			})
	}
	fmt.Printf("T1 per program: %v\n", t1s)
	printScaling("program", "total detection time", sizes, backends, func(b string, i int) string {
		return time.Duration(times[b][i]).Round(time.Microsecond).String()
	})
	fmt.Println("growth exponent of time vs T1 (1.0 = the O(T1) claim):")
	for _, b := range backends {
		fmt.Printf("  %-18s %.3f\n", b, stats.GrowthExponent(t1s, times[b]))
	}
	fmt.Println()
}

// theorem10 compares the scheduler-coupled SP-hybrid against the naive
// locked sp-order maintainer across worker counts.
func theorem10() {
	fmt.Println("=== Theorem 10: SP-hybrid vs naive locked SP-order ===")
	fib := 18
	if *quick {
		fib = 14
	}
	tr := workload.FibWithAccesses(fib, 4, 512, true, rand.New(rand.NewSource(4)))
	canon, _ := spt.Canonicalize(tr)
	fmt.Printf("workload: fib(%d), %d threads, T1=%d, T∞=%d, lg n ≈ %.1f\n",
		fib, canon.NumThreads(), canon.Work(), canon.Span(), lg(float64(canon.NumThreads())))
	fmt.Printf("%4s | %12s %10s %10s %12s | %12s %16s\n",
		"P", "hybrid time", "steals", "splits", "retries", "naive time", "naive lock acqs")
	for _, p := range []int{1, 2, 4, 8} {
		var hst sphybrid.Stats
		hel := timeIt(reps(), func() { _, hst = race.DetectParallel(canon, p, 1, true) })
		var locks int64
		nel := timeIt(reps(), func() { _, locks = race.DetectParallelNaive(canon, p, 1, true) })
		fmt.Printf("%4d | %12v %10d %10d %12d | %12v %16d\n",
			p, hel.Round(time.Microsecond), hst.Steals, hst.Splits,
			hst.QueryRetries, nel.Round(time.Microsecond), locks)
	}
	fmt.Println("(hybrid's global-lock traffic is O(steals); naive locks EVERY insert+query: Θ(T1))")
	fmt.Println()
}

// section7 relates steal counts to P·T∞ across shapes.
func section7() {
	fmt.Println("=== Section 7: steals vs P·T∞ across shapes ===")
	n := 4096
	if *quick {
		n = 1024
	}
	shapes := []struct {
		name string
		tree *spt.Tree
	}{
		{"fan (tiny T∞)", spt.WideFan(n, 4)},
		{"balanced", spt.BalancedPTree(12, 4)},
		{"fib(16)", spt.FibTree(16, 2)},
		{"chain (T∞=T1)", spt.DeepChain(n, 4)},
	}
	fmt.Printf("%-16s %10s %10s %12s %10s %10s\n", "shape", "T1", "T∞", "T∞(struct)", "steals", "traces")
	for _, s := range shapes {
		canon := s.tree
		if !spt.IsCanonical(canon) {
			canon, _ = spt.Canonicalize(canon)
		}
		h := sphybrid.New(canon, func(w int, u *spt.Node) { runtime.Gosched() })
		st := h.Run(4, 1)
		fmt.Printf("%-16s %10d %10d %12d %10d %10d\n",
			s.name, canon.Work(), canon.Span(), canon.StructuralSpan(), st.Steals, st.Traces)
	}
	fmt.Println("(steals track the STRUCTURAL T∞, which includes spawn overhead on the critical path:\n zero for the chain, Θ(n) for the fan's spawn spine, small for balanced/fib)")
	fmt.Println()
}

// concurrentBenchResult is one (workload, goroutines) measurement of
// the live-monitor scaling benchmark; the JSON field names are the
// committed BENCH_concurrent.json schema.
type concurrentBenchResult struct {
	Workload       string  `json:"workload"`
	Backend        string  `json:"backend"`
	Goroutines     int     `json:"goroutines"`
	Accesses       int64   `json:"accesses"`
	Races          int     `json:"races"`
	NsPerAccess    float64 `json:"nsPerAccess"`
	AccessesPerSec float64 `json:"accessesPerSec"`
	SpeedupVs1     float64 `json:"speedupVs1"`
	// Metrics is the backend-internals excerpt recorded while this row
	// ran (instrumented build; see benchMetrics).
	Metrics *benchMetrics `json:"metrics,omitempty"`
}

// concurrentBenchDoc is the -table concurrent -json output envelope.
type concurrentBenchDoc struct {
	GoMaxProcs           int                     `json:"gomaxprocs"`
	NumCPU               int                     `json:"numcpu"`
	Quick                bool                    `json:"quick"`
	AccessesPerGoroutine int                     `json:"accessesPerGoroutine"`
	Note                 string                  `json:"note"`
	Results              []concurrentBenchResult `json:"results"`
}

// concurrentWorkloads mirrors the trace scenarios' access mixes as live
// goroutine workloads. The access workloads (readmostly, forkjoin):
// every goroutine is one monitored thread doing reads over a shared
// address range (written serially by main before the fork, so reads
// are race-free) and writes over a thread-private range; the mix is
// the knob — readmostly writes 1/16 of the time, the forkjoin-style
// mix 1/4. The forkheavy workload instead drives Fork/Join through the
// live monitor from every goroutine — the structural-event scaling
// measurement — and runs on both concurrent backends: sp-hybrid
// (batched global-tier insertions) and depa (lock-free labels).
var concurrentWorkloads = []struct {
	name       string
	writeEvery int  // access workloads: write once per writeEvery accesses
	forkHeavy  bool // drive fork/join loops instead of accesses
	backends   []string
}{
	{name: "readmostly", writeEvery: 16, backends: []string{"sp-hybrid"}},
	{name: "forkjoin", writeEvery: 4, backends: []string{"sp-hybrid"}},
	{name: "forkheavy", forkHeavy: true, backends: []string{"sp-hybrid", "depa"}},
}

const concurrentSharedLocs = 64

// runConcurrentWorkload forks g monitored goroutine-threads off one
// live monitor, lets each perform perG reads/writes through its cached
// sp.Thread handle, and returns the wall time of the access phase
// (forks, joins, and Report excluded) plus the run's race count.
func runConcurrentWorkload(backend string, writeEvery, g, perG int, reg *metrics.Registry) (time.Duration, int) {
	m := sp.MustMonitor(sp.WithBackend(backend), sp.WithWorkers(g), sp.WithMetrics(reg))
	cur := m.Thread(m.Main())
	for a := uint64(0); a < concurrentSharedLocs; a++ {
		cur.Write(a) // main precedes every worker: reads below are race-free
	}
	workers := make([]sp.Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		wg.Add(1)
		go func(th sp.Thread, rng uint64) {
			defer wg.Done()
			priv := uint64(1)<<32 + uint64(th.ID())<<16
			for k := 0; k < perG; k++ {
				// xorshift64: cheap per-goroutine address stream.
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if rng%uint64(writeEvery) == 0 {
					th.Write(priv + rng%256)
				} else {
					th.Read(rng % concurrentSharedLocs)
				}
			}
		}(workers[i], uint64(i+1)*0x9e3779b97f4a7c15)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := g - 1; i >= 0; i-- {
		cur = workers[i].Join(cur)
	}
	return elapsed, len(m.Report().Races)
}

// runForkHeavyWorkload forks g monitored goroutine-threads and lets
// each run iters fork–access–join iterations through its sp.Thread
// handle: every iteration is one Fork, one or two Writes (mostly to a
// thread-private range; every 64th iteration to one of a few shared
// cells, racy across the parallel workers), and one Join. Structural
// events dominate the stream — the measurement is the monitor's
// structural fast path plus the backend's fork/join cost (batched
// global-tier insertion for sp-hybrid, label derivation for depa).
// The returned duration covers the fork/join phase; the race count
// comes from the shared-cell writes.
func runForkHeavyWorkload(backend string, g, iters int, reg *metrics.Registry) (time.Duration, int) {
	m := sp.MustMonitor(sp.WithBackend(backend), sp.WithWorkers(g), sp.WithMetrics(reg))
	cur := m.Thread(m.Main())
	workers := make([]sp.Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		wg.Add(1)
		go func(th sp.Thread, id int) {
			defer wg.Done()
			priv := uint64(1)<<32 + uint64(id)<<16
			for k := 0; k < iters; k++ {
				l, c := th.Fork()
				if k%64 == 0 {
					l.Write(uint64(k/64) % 4) // shared racy cells
				} else {
					l.Write(priv + uint64(k%256))
				}
				th = l.Join(c)
			}
		}(workers[i], i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return elapsed, len(m.Report().Races)
}

// concurrentGoroutineCounts parses -goroutines, defaulting to powers of
// two up to max(4, NumCPU), plus NumCPU itself when it is not among them.
func concurrentGoroutineCounts() []int {
	if *goroutinesFlag != "" {
		var out []int
		for _, f := range strings.Split(*goroutinesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -goroutines value %q\n", f)
				os.Exit(2)
			}
			out = append(out, n)
		}
		return out
	}
	limit := runtime.NumCPU()
	if limit < 4 {
		limit = 4
	}
	var out []int
	for g := 1; g <= limit; g *= 2 {
		out = append(out, g)
	}
	if n := runtime.NumCPU(); !slices.Contains(out, n) {
		out = append(out, n)
	}
	return out
}

// concurrentBench measures aggregate event throughput of one live
// monitor under increasing goroutine counts. The access workloads are
// the scaling proof of the sharded lock-free access fast path; the
// forkheavy workload exercises the structural fast path (no monitor
// mutex) plus each concurrent backend's fork/join cost. On single-CPU
// hosts it measures contention overhead under oversubscription
// (throughput should hold roughly flat as goroutines grow) rather
// than wall-clock speedup, as with the Theorem 10 experiment.
func concurrentBench(jsonOut bool) {
	perG := 200000
	if *quick {
		perG = 50000
	}
	counts := concurrentGoroutineCounts()
	doc := concurrentBenchDoc{
		GoMaxProcs:           runtime.GOMAXPROCS(0),
		NumCPU:               runtime.NumCPU(),
		Quick:                *quick,
		AccessesPerGoroutine: perG,
		Note: "accesses/sec is aggregate across goroutines; speedupVs1 is vs the 1-goroutine run " +
			"of the same (workload, backend) pair (0 when the run list has no preceding 1-goroutine " +
			"baseline); forkheavy rows count monitored events (one fork, one write, one join per " +
			"iteration) in the accesses column; on single-CPU hosts this measures oversubscription " +
			"overhead, not parallel speedup; instrumented build: monitors record into an sp/metrics " +
			"registry while measured, and each row's metrics object excerpts backend internals",
	}
	if !jsonOut {
		fmt.Println("=== Concurrent monitor scaling (lock-free access + structural fast paths) ===")
		fmt.Printf("%-12s %-12s %6s %12s %8s %12s %14s %10s\n",
			"workload", "backend", "G", "events", "races", "ns/event", "events/sec", "vs G=1")
	}
	for _, w := range concurrentWorkloads {
		// Fork/join iterations are ~3 monitored events each and carry OM
		// or label maintenance; scale the per-goroutine count down so the
		// workloads take comparable time.
		iters := perG
		if w.forkHeavy {
			iters = perG / 10
		}
		for _, b := range w.backends {
			var base float64
			for _, g := range counts {
				// Best phase time over the repetitions (monitor setup and
				// Report are excluded from the clock).
				runtime.GC()
				best := time.Duration(1<<62 - 1)
				var races int
				reg := metrics.NewRegistry()
				for i := 0; i < reps(); i++ {
					var e time.Duration
					var r int
					if w.forkHeavy {
						e, r = runForkHeavyWorkload(b, g, iters, reg)
					} else {
						e, r = runConcurrentWorkload(b, w.writeEvery, g, iters, reg)
					}
					races = r
					if e < best {
						best = e
					}
				}
				total := int64(g) * int64(iters)
				if w.forkHeavy {
					total *= 3 // fork + write + join per iteration
				}
				nsPer := float64(best.Nanoseconds()) / float64(total)
				perSec := 1e9 / nsPer // aggregate across goroutines
				r := concurrentBenchResult{
					Workload:       w.name,
					Backend:        b,
					Goroutines:     g,
					Accesses:       total,
					Races:          races,
					NsPerAccess:    nsPer,
					AccessesPerSec: perSec,
					Metrics:        benchMetricsFrom(reg.Snapshot()),
				}
				if g == 1 {
					base = perSec
				}
				if base > 0 {
					r.SpeedupVs1 = perSec / base
				}
				doc.Results = append(doc.Results, r)
				if !jsonOut {
					fmt.Printf("%-12s %-12s %6d %12d %8d %12.1f %14.0f %9.2fx\n",
						r.Workload, r.Backend, r.Goroutines, r.Accesses, r.Races, r.NsPerAccess, r.AccessesPerSec, r.SpeedupVs1)
				}
			}
		}
	}
	if jsonOut {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Println("(one live monitor, G goroutine-threads via cached sp.Thread handles; access workloads read")
	fmt.Println(" 64 shared locations and write thread-private ones; forkheavy runs fork-write-join loops")
	fmt.Println(" on each concurrent backend; commit `spbench -table concurrent -json` as")
	fmt.Println(" BENCH_concurrent.json to track the scaling trajectory)")
	fmt.Println()
}

func lg(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}
