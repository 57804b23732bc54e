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
// composition: mergeTokens, dropPreceding and edgeOrdered against the
// pairwise code they replaced, kept here as their oracle, and the
// comparison counts that make a Put or a one-token Get O(log k), a Get
// of k tokens O(k log k), a join of two sets sharing their tokens
// O(k), and an edge query O(log k) in the number k of observed tokens.

// pruneCtxQuadratic is the pairwise pruning the antichain code
// replaced: a token is kept unless it repeats an earlier one,
// SP-precedes cur, or SP-precedes any other token — O(k²) SP queries,
// in input order.
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
		if st := m.threads.At(i); st != nil && st.is(threadCreated) && st.snap != nil {
			out = append(out, ThreadID(i))
		}
	}
	return out
}

// begunThreads lists every thread that has begun.
func begunThreads(m *Monitor) []ThreadID {
	var out []ThreadID
	for i := int64(0); i < m.nthreads.Load(); i++ {
		if st := m.threads.At(i); st != nil && st.is(threadCreated) && st.is(threadBegun) {
			out = append(out, ThreadID(i))
		}
	}
	return out
}

// sortEnglish sorts distinct tokens by m's English order, in place.
func sortEnglish(m *Monitor, set []ThreadID) []ThreadID {
	slices.SortFunc(set, func(a, b ThreadID) int {
		switch {
		case a == b:
			return 0
		case m.englishBefore(a, b):
			return -1
		default:
			return 1
		}
	})
	return set
}

// drawAntichain draws a token set in the ctx form from pool: the
// SP-maximal subset of 0..12 tokens drawn with replacement, sorted by
// English order.
func drawAntichain(m *Monitor, rng *rand.Rand, pool []ThreadID) []ThreadID {
	tokens := make([]ThreadID, rng.Intn(13))
	for i := range tokens {
		tokens[i] = pool[rng.Intn(len(pool))]
	}
	return sortEnglish(m, pruneCtxQuadratic(m, tokens, NoThread))
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

// sameArray reports whether two non-empty slices start at one element.
func sameArray(p, q []ThreadID) bool { return len(p) > 0 && len(q) > 0 && &p[0] == &q[0] }

// checkPrune compares mergeTokens, and dropPreceding for getter cur
// (unless NoThread), with the quadratic oracle over the union, on a few
// pairs of antichains drawn from pool: independent pairs, one side
// empty, equal sets in two slices and one slice passed twice, each in
// both argument orders. A merge that adds nothing to the longer set
// must return that slice itself. edgeOrdered is checked against the
// scan over each result for every begun thread.
func checkPrune(t *testing.T, m *Monitor, ref func(a, b ThreadID) bool, rng *rand.Rand, pool []ThreadID, cur ThreadID) {
	t.Helper()
	if len(pool) == 0 {
		return
	}
	begun := begunThreads(m)
	a, b := drawAntichain(m, rng, pool), drawAntichain(m, rng, pool)
	pairs := [][2][]ThreadID{{a, b}, {a, nil}, {a, slices.Clone(a)}, {a, a}}
	for _, p := range pairs {
		for _, args := range [][2][]ThreadID{p, {p[1], p[0]}} {
			x, y := args[0], args[1]
			union := append(slices.Clone(x), y...)
			want := sortEnglish(m, pruneCtxQuadratic(m, union, NoThread))
			got := m.mergeTokens(x, y)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: mergeTokens(%v, %v) = %v, quadratic oracle %v", m.info.Name, x, y, got, want)
			}
			longer := x
			if len(y) > len(x) {
				longer = y
			}
			if len(got) > 0 && slices.Equal(longer, want) && !sameArray(got, x) && !sameArray(got, y) {
				t.Fatalf("%s: mergeTokens(%v, %v) copied %v, which it adds nothing to", m.info.Name, x, y, longer)
			}
			sets := [][]ThreadID{got}
			if cur != NoThread {
				want := sortEnglish(m, pruneCtxQuadratic(m, union, cur))
				dropped := m.dropPreceding(got, cur)
				if !slices.Equal(dropped, want) {
					t.Fatalf("%s: dropPreceding(%v, t%d) = %v, quadratic oracle %v", m.info.Name, got, cur, dropped, want)
				}
				sets = append(sets, dropped)
			}
			for _, set := range sets {
				checkAntichain(t, m, ref, set)
				st := &threadState{m: m, ctx: set}
				for _, prev := range begun {
					if g, w := st.edgeOrdered(prev), edgeOrderedScan(m, set, prev); g != w {
						t.Fatalf("%s: edgeOrdered(t%d) over %v = %v, scan %v", m.info.Name, prev, set, g, w)
					}
				}
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
		st := m.threads.At(i)
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
// English reference is sp-order's handles over the same replay,
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
					checkPrune(t, m, refMon.englishBefore, rng, putTokens(m), cur)
				})
				checkLiveSets(t, m, refMon.englishBefore)
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
// sp_depa_walk_steps histogram. k+3 parallel putters fork off a spine;
// the getter at its end Gets the first k tokens in shuffled order, a
// balanced merge of O(k log k) comparisons (pairwise pruning paid k²),
// and reads every putter's cell, each read's edge query a binary search
// of O(log k) (a scan paid O(k)). Then come the steps that sorting the
// union paid O(k log k) for: a Get of a token already observed, a Get
// of one new parallel token and a Put by the getter each take O(log k),
// and a join of two branches whose sets share the k tokens takes one
// pass of equality checks.
func TestEdgeAntichainCost(t *testing.T) {
	const k = 1024
	logk := bits.Len(k) - 1
	reg := metrics.NewRegistry()
	m := MustMonitor(WithBackend("depa"), WithMetrics(reg))
	walks := func() int64 {
		for _, f := range reg.Snapshot().Families {
			if f.Name == "sp_depa_walk_steps" {
				return f.Series[0].Count
			}
		}
		return 0
	}
	cost := func(step func()) int64 {
		before := walks()
		step()
		return walks() - before
	}

	getter := m.Thread(m.Main())
	tokens := make([]ThreadID, k+3)
	for i := range tokens {
		var putter Thread
		putter, getter = getter.Fork()
		putter.Write(uint64(i))
		tokens[i] = putter.ID()
		putter.Put()
	}
	tokens, extra := tokens[:k], tokens[k:]
	rand.New(rand.NewSource(1)).Shuffle(k, func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })

	getCost := cost(func() { getter.Get(tokens...) })
	if limit := int64(4 * k * logk); getCost > limit {
		t.Errorf("Get of %d parallel tokens: %d label comparisons, want ≤ 4·k·log₂k = %d", k, getCost, limit)
	}
	if n := len(m.state(getter.ID()).ctx); n != k {
		t.Fatalf("getter observes %d tokens, want all %d (pairwise parallel)", n, k)
	}
	worst := int64(0)
	for i := range k {
		worst = max(worst, cost(func() { getter.Read(uint64(i)) }))
	}
	t.Logf("k=%d: Get %d label comparisons, worst read %d", k, getCost, worst)
	if limit := int64(2*logk + 4); worst > limit {
		t.Errorf("read ordered by one of %d tokens: up to %d label comparisons, want ≤ 2·log₂k+4 = %d", k, worst, limit)
	}

	small := int64(8*logk + 8)
	ctx := m.state(getter.ID()).ctx
	observed := int64(0)
	for _, tok := range tokens {
		observed = max(observed, cost(func() { getter.Get(tok) }))
	}
	if observed > small {
		t.Errorf("Get of a token already observed among %d: up to %d label comparisons, want ≤ 8·log₂k+8 = %d", k, observed, small)
	}
	if !sameArray(m.state(getter.ID()).ctx, ctx) {
		t.Errorf("Get of tokens already observed copied the getter's set")
	}
	fresh := cost(func() { getter.Get(extra[0]) })
	if fresh > small {
		t.Errorf("Get of one new parallel token next to %d: %d label comparisons, want ≤ 8·log₂k+8 = %d", k, fresh, small)
	}
	put := cost(func() { getter = getter.Put() })
	if put > small {
		t.Errorf("Put by a getter observing %d tokens: %d label comparisons, want ≤ 8·log₂k+8 = %d", k+1, put, small)
	}
	left, right := getter.Fork()
	left.Get(extra[1])
	right.Get(extra[2])
	var cont Thread
	join := cost(func() { cont = left.Join(right) })
	if join > 4*k {
		t.Errorf("join of two sets sharing %d tokens: %d label comparisons, want ≤ 4k = %d", k+1, join, 4*k)
	}
	t.Logf("k=%d: Get of an observed token ≤ %d, Get of a new token %d, Put %d, join %d label comparisons", k, observed, fresh, put, join)
	if n := len(m.state(cont.ID()).ctx); n != k+3 {
		t.Fatalf("join continuation observes %d tokens, want all %d", n, k+3)
	}
	if rep := m.Report(); len(rep.Races) != 0 {
		t.Fatalf("every read is ordered by a Get, yet %d races: %v", len(rep.Races), rep.Races[0])
	}
}
