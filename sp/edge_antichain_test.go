package sp

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spt"
	"repro/sp/metrics"
)

// This file pins the English-ordered antichain behind Put/Get edge
// composition: pruneCtx and edgeOrdered against the pairwise code they
// replaced, kept here as their oracle, and the comparison counts that
// make a Get O(k log k) and an edge query O(log k) in the number k of
// observed tokens.

// pruneCtxQuadratic is the pairwise pruning pruneCtx replaced: a token
// is kept unless it repeats an earlier one, SP-precedes cur, or
// SP-precedes any other token — O(k²) SP queries, in input order.
func pruneCtxQuadratic(m *Monitor, tokens []ThreadID, cur ThreadID) []ThreadID {
	var out []ThreadID
outer:
	for i, s := range tokens {
		for j := 0; j < i; j++ {
			if tokens[j] == s {
				continue outer
			}
		}
		if cur != NoThread && m.pairPrecedes(s, cur) {
			continue
		}
		for _, o := range tokens {
			if o != s && m.pairPrecedes(s, o) {
				continue outer
			}
		}
		out = append(out, s)
	}
	return out
}

// edgeOrderedScan is the linear scan edgeOrdered replaced: prev is, or
// SP-precedes, some token of ctx.
func edgeOrderedScan(m *Monitor, ctx []ThreadID, prev ThreadID) bool {
	for _, s := range ctx {
		if prev == s || m.pairPrecedes(prev, s) {
			return true
		}
	}
	return false
}

// genEdgeProgram draws a random SP program with Put/Get steps: each
// leaf may Get one future Put by an English-earlier leaf, runs a few
// accesses, then Puts zero to two futures of its own. Leaves composed
// in series and repeated Puts of one leaf yield SP-ordered tokens; a
// Get after a series-earlier Put observes a token that SP-precedes the
// getter.
func genEdgeProgram(rng *rand.Rand) *spt.Tree {
	cfg := spt.DefaultGenConfig(2 + rng.Intn(20))
	cfg.PProb = []float64{0.3, 0.6, 0.9}[rng.Intn(3)]
	cfg.Steps, cfg.Locations = 2, 8
	tr := spt.Generate(cfg, rng)
	futures := 0
	for _, leaf := range tr.Threads() {
		var steps []spt.Step
		if futures > 0 && rng.Intn(2) == 0 {
			steps = append(steps, spt.GetStep(rng.Intn(futures)))
		}
		steps = append(steps, leaf.Steps...)
		for n := rng.Intn(3); n > 0; n-- {
			steps = append(steps, spt.PutStep(futures), spt.W(rng.Intn(cfg.Locations)))
			futures++
		}
		leaf.Steps = steps
	}
	return tr
}

// putTokens lists the threads a Put has retired so far.
func putTokens(m *Monitor) []ThreadID {
	var out []ThreadID
	for i := int64(0); i < m.nthreads.Load(); i++ {
		if st := m.threads.Get(i); st != nil && st.snap != nil {
			out = append(out, ThreadID(i))
		}
	}
	return out
}

// begunThreads lists every thread that has begun.
func begunThreads(m *Monitor) []ThreadID {
	var out []ThreadID
	for i := int64(0); i < m.nthreads.Load(); i++ {
		if st := m.threads.Get(i); st != nil && st.begun.Load() {
			out = append(out, ThreadID(i))
		}
	}
	return out
}

// drawTokens draws a token multiset from pool: 1..12 tokens with
// replacement, a quarter of them forced repeats.
func drawTokens(rng *rand.Rand, pool []ThreadID) []ThreadID {
	n := 1 + rng.Intn(12)
	out := make([]ThreadID, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(4) == 0 {
			out = append(out, out[rng.Intn(len(out))])
		} else {
			out = append(out, pool[rng.Intn(len(pool))])
		}
	}
	return out
}

// checkAntichain holds one pruning result to the invariant edgeOrdered
// relies on: strictly ascending English order, according to m and,
// when ref is non-nil, to ref (an independent English order over the
// same thread IDs).
func checkAntichain(t *testing.T, m *Monitor, ref func(a, b ThreadID) bool, got []ThreadID) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if !m.englishBefore(a, b) || m.englishBefore(b, a) {
			t.Fatalf("%s: %v not in strictly ascending English order at t%d, t%d", m.info.Name, got, a, b)
		}
		if ref != nil && !ref(a, b) {
			t.Fatalf("%s: %v not in the reference English order at t%d, t%d", m.info.Name, got, a, b)
		}
	}
}

// checkPrune compares pruneCtx with the quadratic oracle on a few token
// multisets drawn from pool, for getter cur, and edgeOrdered with the
// scan over the pruned set for every begun thread.
func checkPrune(t *testing.T, m *Monitor, ref func(a, b ThreadID) bool, rng *rand.Rand, pool []ThreadID, cur ThreadID) {
	t.Helper()
	if len(pool) == 0 {
		return
	}
	begun := begunThreads(m)
	for range 3 {
		tokens := drawTokens(rng, pool)
		want := pruneCtxQuadratic(m, tokens, cur)
		got := m.pruneCtx(slices.Clone(tokens), cur)
		if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
			t.Fatalf("%s: pruneCtx(%v, t%d) = %v, quadratic oracle %v", m.info.Name, tokens, cur, got, want)
		}
		checkAntichain(t, m, ref, got)
		r := hbRel{m: m, st: &threadState{ctx: got}}
		for _, prev := range begun {
			if g, w := r.edgeOrdered(prev), edgeOrderedScan(m, got, prev); g != w {
				t.Fatalf("%s: edgeOrdered(t%d) over %v = %v, scan %v", m.info.Name, prev, got, g, w)
			}
		}
	}
}

// checkLiveSets holds every token set the monitor itself maintained —
// each thread's observed ctx and each Put's published snapshot — to
// the antichain invariant.
func checkLiveSets(t *testing.T, m *Monitor, ref func(a, b ThreadID) bool) {
	t.Helper()
	for i := int64(0); i < m.nthreads.Load(); i++ {
		st := m.threads.Get(i)
		for _, set := range [][]ThreadID{st.ctx, st.snap} {
			if want := pruneCtxQuadratic(m, set, NoThread); len(want) != len(set) {
				t.Fatalf("%s: t%d holds %v, not an SP antichain (maximal subset %v)", m.info.Name, i, set, want)
			}
			checkAntichain(t, m, ref, set)
		}
	}
}

// TestEdgeAntichainOracle compares the English-ordered antichain code
// with the quadratic code it replaced on every backend, over random
// fork/join/Put/Get programs: during the serial Replay (each leaf
// against the tokens Put so far, the leaf's thread as getter; the
// English reference is sp-order's order list over the same replay,
// whose thread IDs coincide) and, on the any-order backends, after a
// ReplayParallel (random getters, random begun threads).
func TestEdgeAntichainOracle(t *testing.T) {
	const serialPrograms, parallelPrograms = 120, 40
	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20261017))
			for range serialPrograms {
				tr := genEdgeProgram(rng)
				refMon := MustMonitor(WithBackend("sp-order"), WithRaceDetection(false))
				Replay(tr, refMon)
				m := MustMonitor(WithBackend(name))
				ReplayObserved(tr, m, func(_ *spt.Node, cur ThreadID) {
					checkPrune(t, m, refMon.orders.EnglishBefore, rng, putTokens(m), cur)
				})
				checkLiveSets(t, m, refMon.orders.EnglishBefore)
				m.Report()
			}
			if info, _ := Lookup(name); !info.AnyOrder {
				return
			}
			for range parallelPrograms {
				tr := genEdgeProgram(rng)
				m := MustMonitor(WithBackend(name))
				ReplayParallel(tr, m, 4)
				checkLiveSets(t, m, nil)
				pool, begun := putTokens(m), begunThreads(m)
				for range 8 {
					cur := NoThread
					if rng.Intn(4) > 0 {
						cur = begun[rng.Intn(len(begun))]
					}
					checkPrune(t, m, nil, rng, pool, cur)
				}
				m.Report()
			}
		})
	}
}

// TestEdgeAntichainCost pins the cost of edge composition in depa
// label comparisons, each of which adds one sample to the
// sp_depa_walk_steps histogram: k parallel putters, one parallel
// getter that Gets all k tokens in shuffled order and then reads every
// putter's cell. The Get sorts and prunes in O(k log k) comparisons
// (pairwise pruning paid k²), and each read's edge query binary-searches
// the k observed tokens in O(log k) (a scan paid O(k)).
func TestEdgeAntichainCost(t *testing.T) {
	const k = 1024
	logk := bits.Len(k) - 1
	reg := metrics.NewRegistry()
	m := MustMonitor(WithBackend("depa"), WithMetrics(reg))
	walks := reg.Histogram("sp_depa_walk_steps", "")

	getter := m.Thread(m.Main())
	tokens := make([]ThreadID, k)
	for i := range tokens {
		var putter Thread
		putter, getter = getter.Fork()
		putter.Write(uint64(i))
		tokens[i] = putter.ID()
		putter.Put()
	}
	rand.New(rand.NewSource(1)).Shuffle(k, func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })

	before := walks.Count()
	getter.Get(tokens...)
	getCost := walks.Count() - before
	if limit := int64(4 * k * logk); getCost > limit {
		t.Errorf("Get of %d parallel tokens: %d label comparisons, want ≤ 4·k·log₂k = %d", k, getCost, limit)
	}
	if n := len(m.state(getter.ID()).ctx); n != k {
		t.Fatalf("getter observes %d tokens, want all %d (pairwise parallel)", n, k)
	}
	worst := int64(0)
	for i := range k {
		before = walks.Count()
		getter.Read(uint64(i))
		worst = max(worst, walks.Count()-before)
	}
	t.Logf("k=%d: Get %d label comparisons, worst read %d", k, getCost, worst)
	if limit := int64(2*logk + 4); worst > limit {
		t.Errorf("read ordered by one of %d tokens: up to %d label comparisons, want ≤ 2·log₂k+4 = %d", k, worst, limit)
	}
	if rep := m.Report(); len(rep.Races) != 0 {
		t.Fatalf("every read is ordered by a Get, yet %d races: %v", len(rep.Races), rep.Races[0])
	}
}
