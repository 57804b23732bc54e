package sphybrid

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/spt"
)

// checkRun executes tr under SP-hybrid with the given worker count and
// verifies, inside every thread, that queries against a sample of
// previously executed threads agree with the LCA oracle. This is the
// Theorem 9 regime: the second argument of each query is the currently
// executing thread.
func checkRun(t *testing.T, tr *spt.Tree, workers int, seed int64) Stats {
	t.Helper()
	o := spt.NewOracle(tr)
	var mu sync.Mutex
	executed := make([]*spt.Node, 0, tr.NumThreads())
	type mismatch struct {
		u, v *spt.Node
		rel  spt.Relation
		got  string
	}
	var bad []mismatch

	var h *SPHybrid
	h = New(tr, func(w int, u *spt.Node) {
		mu.Lock()
		sample := make([]*spt.Node, len(executed))
		copy(sample, executed)
		mu.Unlock()
		// Query every previously executed thread against the current
		// one (bounded for big trees).
		step := 1
		if len(sample) > 64 {
			step = len(sample) / 64
		}
		for i := 0; i < len(sample); i += step {
			v := sample[i]
			rel := o.Relate(v, u)
			if got := h.Precedes(v, u); got != (rel == spt.Precedes) {
				mu.Lock()
				bad = append(bad, mismatch{v, u, rel, "precedes"})
				mu.Unlock()
			}
			if got := h.Parallel(v, u); got != (rel == spt.Parallel) {
				mu.Lock()
				bad = append(bad, mismatch{v, u, rel, "parallel"})
				mu.Unlock()
			}
		}
		mu.Lock()
		executed = append(executed, u)
		mu.Unlock()
		runtime.Gosched() // let thieves run on single-CPU machines
	})
	stats := h.Run(workers, seed)
	if len(bad) > 0 {
		m := bad[0]
		t.Fatalf("workers=%d seed=%d: %d mismatches; first: %s(%s,%s) wrong, oracle %v",
			workers, seed, len(bad), m.got, m.u, m.v, m.rel)
	}
	if stats.ThreadsExecuted != int64(tr.NumThreads()) {
		t.Fatalf("executed %d threads, want %d", stats.ThreadsExecuted, tr.NumThreads())
	}
	if stats.Traces != 4*stats.Splits+1 {
		t.Fatalf("traces = %d, want 4·splits+1 = %d", stats.Traces, 4*stats.Splits+1)
	}
	return stats
}

func TestSPHybridSerialMatchesOracle(t *testing.T) {
	// One worker: SP-hybrid degenerates to the serial walk (no splits).
	stats := checkRun(t, spt.FibTree(9, 1), 1, 1)
	if stats.Splits != 0 {
		t.Fatalf("serial run must not split, got %d", stats.Splits)
	}
}

func TestSPHybridMatchesOracleShapes(t *testing.T) {
	shapes := map[string]*spt.Tree{
		"fan":      spt.WideFan(40, 3),
		"balanced": spt.BalancedPTree(6, 3),
		"fib":      spt.FibTree(9, 2),
		"blocks":   spt.SyncBlockChain(4, 5, 3),
		"chain":    spt.DeepChain(40, 2),
	}
	for name, tr := range shapes {
		for _, p := range []int{2, 4, 8} {
			t.Run(name, func(t *testing.T) { checkRun(t, tr, p, int64(p)) })
		}
	}
}

func TestSPHybridMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		cfg := spt.DefaultGenConfig(2 + rng.Intn(60))
		cfg.PProb = []float64{0.3, 0.6, 0.9}[trial%3]
		tr, _ := spt.Canonicalize(spt.Generate(cfg, rng))
		checkRun(t, tr, 1+rng.Intn(8), int64(trial))
	}
}

func TestSPHybridWithStealsStillCorrect(t *testing.T) {
	// Insist on observing steals (retry seeds) and then validate.
	for seed := int64(0); seed < 20; seed++ {
		tr := spt.BalancedPTree(8, 5)
		stats := checkRun(t, tr, 4, seed)
		if stats.Splits > 0 {
			return
		}
	}
	t.Fatal("no splits observed over 20 seeds; steal machinery appears dead")
}

// TestSplitSubtracePropertiesForcedSteal builds the smallest interesting
// computation, forces a steal on the single P-node, and verifies the
// Figure 11/12 structure: the subtraces hold the right threads and the
// global orders are English ⟨U1,U2,U3,U4,U5⟩, Hebrew ⟨U1,U4,U3,U2,U5⟩.
//
// Shape (one canonical procedure):
//
//	block1: u_a ; spawn C1 ; sync     — C1's threads form the P-bag (U2)
//	block2: u_b ; spawn C2 ; u_r ; sync
//	block3: u_e
//
// We force worker 1 to steal block2's P-node continuation by having C2's
// body block until the steal happens.
func TestSplitSubtracePropertiesForcedSteal(t *testing.T) {
	child := func(name string, cost int64) *spt.Proc {
		return &spt.Proc{Name: name, Blocks: []spt.SyncBlock{{
			Stmts: []spt.Stmt{spt.ThreadStmt(name+".body", cost)},
		}}}
	}
	p := &spt.Proc{Name: "main", Blocks: []spt.SyncBlock{
		{Stmts: []spt.Stmt{
			spt.ThreadStmt("u_a", 1),
			spt.SpawnStmt(child("C1", 1)),
		}},
		{Stmts: []spt.Stmt{
			spt.ThreadStmt("u_b", 1),
			spt.SpawnStmt(child("C2", 1)),
			spt.ThreadStmt("u_r", 1),
		}},
		{Stmts: []spt.Stmt{spt.ThreadStmt("u_e", 1)}},
	}}
	root, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := spt.MustTree(root)

	byLabel := func(label string) *spt.Node {
		for _, l := range tr.Threads() {
			if l.Label == label {
				return l
			}
		}
		t.Fatalf("no thread %q", label)
		return nil
	}

	ua, ub := byLabel("u_a"), byLabel("u_b")
	c1, c2 := byLabel("C1.body"), byLabel("C2.body")
	ur, ue := byLabel("u_r"), byLabel("u_e")

	// Find a seed where a steal occurs. The relations are checked inside
	// the threads, as the detector issues them: Theorem 9 answers a query
	// only while one endpoint is executing. After the run every bag has
	// been folded into an S-bag, so a same-trace pair such as C2.body and
	// u_r (when the steal hit another P-node) would read as serial.
	for seed := int64(0); seed < 50; seed++ {
		var mu sync.Mutex
		sawSplit := false
		var checkedParallel atomic.Bool
		var h *SPHybrid
		executed := func(u *spt.Node) bool { return h.nodeOf[u.ID].Load() != nil }
		h = New(tr, func(w int, u *spt.Node) {
			switch u {
			case ub:
				if !h.Precedes(c1, ub) {
					t.Error("C1.body must precede u_b across the first sync")
				}
			case c2:
				if !h.Precedes(ub, c2) {
					t.Error("u_b precedes its block's spawn")
				}
				// Stall so the continuation (u_r and the join) gets
				// stolen.
				for i := 0; i < 2000; i++ {
					runtime.Gosched()
					mu.Lock()
					done := sawSplit
					mu.Unlock()
					if done {
						break
					}
					if h.splits.Load() > 0 {
						mu.Lock()
						sawSplit = true
						mu.Unlock()
						break
					}
				}
				if executed(ur) {
					checkedParallel.Store(true)
					if !h.Parallel(ur, c2) {
						t.Error("the continuation u_r must be parallel to C2.body")
					}
				}
			case ur:
				if !h.Precedes(ub, ur) {
					t.Error("u_b precedes its block's continuation")
				}
				if executed(c2) {
					checkedParallel.Store(true)
					if !h.Parallel(c2, ur) {
						t.Error("C2.body must be parallel to the continuation u_r")
					}
				}
			case ue:
				for _, v := range []*spt.Node{ua, c1, ub, c2, ur} {
					if !h.Precedes(v, ue) {
						t.Errorf("%s must precede u_e across the final sync", v.Label)
					}
				}
			}
		})
		stats := h.Run(2, seed)
		// C2.body and u_r each check the pair once the other has
		// started, so at least one of them must have.
		if !checkedParallel.Load() {
			t.Fatal("neither C2.body nor u_r queried the other")
		}
		if t.Failed() || stats.Splits > 0 {
			return
		}
	}
	t.Skip("could not force a steal in 50 seeds on this machine")
}

func TestFindTraceAndSplitCounts(t *testing.T) {
	tr := spt.BalancedPTree(7, 4)
	var h *SPHybrid
	h = New(tr, func(w int, u *spt.Node) { runtime.Gosched() })
	stats := h.Run(4, 11)
	// FIND-TRACE on every thread must return a live trace.
	for _, l := range tr.Threads() {
		if h.FindTrace(l) == nil {
			t.Fatalf("FindTrace(%s) = nil", l)
		}
	}
	if stats.GlobalInserts != 4*stats.Splits {
		t.Fatalf("global inserts %d != 4·splits %d", stats.GlobalInserts, stats.Splits)
	}
}

func TestQueryUnexecutedPanics(t *testing.T) {
	tr := spt.WideFan(4, 1)
	h := New(tr, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Precedes(tr.Threads()[0], tr.Threads()[1])
}

func TestSelfQueryFalse(t *testing.T) {
	tr := spt.DeepChain(4, 1)
	var h *SPHybrid
	h = New(tr, func(w int, u *spt.Node) {
		if h.Precedes(u, u) || h.Parallel(u, u) {
			t.Error("self query must be false")
		}
	})
	h.Run(1, 0)
}

// TestLemma8CrossTraceOrdering validates the global-tier ordering rule on
// every pair of threads that ends up in DIFFERENT traces: by Lemma 8,
// Eng and Heb agreement must equal precedence for such pairs even after
// the run (frozen traces keep their positions).
func TestLemma8CrossTraceOrdering(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := spt.FibTree(11, 2)
		o := spt.NewOracle(tr)
		var h *SPHybrid
		h = New(tr, func(w int, u *spt.Node) { runtime.Gosched() })
		stats := h.Run(4, seed)
		if stats.Splits == 0 {
			continue
		}
		threads := tr.Threads()
		rng := rand.New(rand.NewSource(seed))
		checked := 0
		for k := 0; k < 20000 && checked < 2000; k++ {
			u := threads[rng.Intn(len(threads))]
			v := threads[rng.Intn(len(threads))]
			if u == v || h.FindTrace(u) == h.FindTrace(v) {
				continue
			}
			checked++
			rel := o.Relate(u, v)
			if got := h.Precedes(u, v); got != (rel == spt.Precedes) {
				t.Fatalf("seed %d: cross-trace Precedes(%s,%s) = %v, oracle %v", seed, u, v, got, rel)
			}
			if got := h.Parallel(u, v); got != (rel == spt.Parallel) {
				t.Fatalf("seed %d: cross-trace Parallel(%s,%s) = %v, oracle %v", seed, u, v, got, rel)
			}
		}
		if checked > 0 {
			return
		}
	}
	t.Skip("no cross-trace pairs materialized; machine too serial")
}

func TestStatsShape(t *testing.T) {
	tr := spt.BalancedPTree(6, 2)
	h := New(tr, func(w int, u *spt.Node) { runtime.Gosched() })
	stats := h.Run(4, 3)
	if stats.LocalUnions == 0 {
		t.Fatal("local tier must perform unions")
	}
	if stats.Traces < 1 {
		t.Fatal("at least the initial trace must exist")
	}
	if stats.Splits != stats.Steals {
		t.Fatalf("splits (%d) must equal successful steals (%d)", stats.Splits, stats.Steals)
	}
}
