package shadow

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// serialRel is a scripted SP relation for driving the protocol without
// a real maintainer: accessors are ints, and the relation declares
// every pair of distinct accessors parallel (the worst case) or serial,
// per the flag. Its orders are those of a serial stream, where every
// past accessor is English-before the current one and Hebrew-before it
// iff it precedes it.
type serialRel struct{ parallel bool }

func (r serialRel) ParallelCurrent(int) bool { return r.parallel }
func (r serialRel) Orders(int) (bool, bool)  { return true, !r.parallel }

// memory is a shadow memory that keeps no state of its own beside the
// cells.
type memory = Memory[int, struct{}]

// access applies one access under the owning shard's lock, as a caller
// that keeps nothing beside the cells does.
func access(m *memory, addr uint64, rel Relative[int], cur int, site any, write bool) (Found[int], bool) {
	s := m.Lock(addr)
	defer s.Unlock()
	return s.AccessOrdered(addr, rel, cur, site, write)
}

// totals sums the shards' access and query counts.
func totals(m *memory) (hits, queries int64) {
	for i := range m.NumShards() {
		s := m.LockShard(i)
		hits += s.Hits
		queries += s.Queries
		s.Unlock()
	}
	return hits, queries
}

// TestShardIndexSpreadsAdjacentAddresses pins the property the sharded
// fast path depends on: consecutive addresses — the layout of real
// program data and of the workload generators — are spread across
// shards instead of piling onto one, and in particular adjacent
// addresses almost always differ in shard.
func TestShardIndexSpreadsAdjacentAddresses(t *testing.T) {
	m := NewMemory[int, struct{}](64)
	if m.NumShards() != 64 {
		t.Fatalf("NumShards = %d, want 64", m.NumShards())
	}
	index := func(a uint64) int {
		s := m.Lock(a)
		s.Unlock()
		for i := range m.shards {
			if &m.shards[i] == s {
				return i
			}
		}
		return -1
	}
	const n = 256
	seen := map[int]bool{}
	adjacentSame := 0
	for a := uint64(0); a < n; a++ {
		i := index(a)
		if i < 0 || i >= m.NumShards() {
			t.Fatalf("Lock(%d) locked shard %d, out of range", a, i)
		}
		seen[i] = true
		if a > 0 && i == index(a-1) {
			adjacentSame++
		}
	}
	if len(seen) < m.NumShards()/2 {
		t.Fatalf("%d consecutive addresses hit only %d of %d shards", n, len(seen), m.NumShards())
	}
	if adjacentSame > n/8 {
		t.Fatalf("%d of %d adjacent address pairs share a shard; mixing is broken", adjacentSame, n-1)
	}
}

func TestNewMemoryRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {64, 64}, {65, 128}} {
		if got := NewMemory[int, struct{}](tc.in).NumShards(); got != tc.want {
			t.Fatalf("NewMemory(%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestAccessProtocol replays the canonical protocol cases through the
// sharded AccessOrdered path: write-write, write-read, read-write
// races under a parallel relation, and silence under a serial one.
func TestAccessProtocol(t *testing.T) {
	m := NewMemory[int, struct{}](8)
	// Serial accessors: no races, reader handoff costs queries.
	if f, ok := access(m, 7, serialRel{false}, 1, nil, true); ok {
		t.Fatalf("first write raced: %+v", f)
	}
	if f, ok := access(m, 7, serialRel{false}, 2, nil, true); ok {
		t.Fatalf("serial write-write raced: %+v", f)
	}
	// Parallel accessors on another location.
	if f, ok := access(m, 9, serialRel{true}, 1, "s1", true); ok {
		t.Fatalf("first write raced: %+v", f)
	}
	f, ok := access(m, 9, serialRel{true}, 2, "s2", false)
	if !ok || f.Kind != WriteRead || f.Prev != 1 || f.PrevSite != "s1" {
		t.Fatalf("parallel write-read = %+v, want WriteRead by 1 at s1", f)
	}
	f, ok = access(m, 9, serialRel{true}, 3, nil, true)
	if !ok || f.Kind != WriteWrite || f.Prev != 1 {
		t.Fatalf("parallel write-write = %+v, want WriteWrite vs 1", f)
	}
	if hits, q := totals(m); hits != 5 || q == 0 {
		t.Fatalf("shards counted %d accesses and %d SP queries, want 5 and some", hits, q)
	}
}

// TestSameAddressManyGoroutines hammers one address — one shard, one
// cell — from many goroutines. Under -race this proves the shard lock
// fully serializes cell access; the final writer must be one of the
// accessors and every conflicting pair is parallel, so every goroutine
// after the first write observes a race.
func TestSameAddressManyGoroutines(t *testing.T) {
	m := NewMemory[int, struct{}](64)
	workers := 4 * runtime.NumCPU()
	const per = 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	races := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			found := 0
			for i := 0; i < per; i++ {
				if _, ok := access(m, 42, serialRel{true}, w, nil, i%3 == 0); ok {
					found++
				}
			}
			mu.Lock()
			races += found
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	hits, queries := totals(m)
	if races == 0 || queries == 0 || hits != int64(workers*per) {
		t.Fatalf("parallel hammer found races=%d queries=%d hits=%d, want races and queries > 0 and %d hits",
			races, queries, hits, workers*per)
	}
}

// TestDistinctAddressesDistinctShards drives concurrent accessors over
// a dense address range under -race: with 256 addresses on 64 shards,
// accesses synchronize on many independent locks, and the per-shard
// cell maps must never be observed torn.
func TestDistinctAddressesDistinctShards(t *testing.T) {
	m := NewMemory[int, struct{}](64)
	workers := 4 * runtime.NumCPU()
	const addrs = 256
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := uint64(0); a < addrs; a++ {
				access(m, a, serialRel{false}, w, nil, false)
			}
		}(w)
	}
	wg.Wait()
	// Every address must have a retained reader now.
	for a := uint64(0); a < addrs; a++ {
		s := m.Lock(a)
		c := s.cells[a]
		s.Unlock()
		if c == nil || !c.hasReader {
			t.Fatalf("address %d lost its reader", a)
		}
	}
}

// orderedRel scripts the two total orders directly: accessor i sits at
// eng[i] in English order and heb[i] in Hebrew order. a ≺ b iff before
// in both, a ∥ b iff the orders disagree (Lemma 1 of the paper).
type orderedRel struct {
	eng, heb map[int]int
	cur      int
}

func (r orderedRel) ParallelCurrent(p int) bool {
	english, hebrew := r.Orders(p)
	return english != hebrew
}
func (r orderedRel) Orders(p int) (bool, bool) {
	return r.eng[p] < r.eng[r.cur], r.heb[p] < r.heb[r.cur]
}

// TestOrderedProtocolCatchesMaskedReader pins the completeness gap
// that separates the two protocols under concurrent execution orders.
// Program P(r1, S(r2, w)): r1 ∥ everything, r2 ≺ w. English order
// r1,r2,w; Hebrew order r2,w,r1. Feasible execution order: r2 reads,
// r1 reads, w writes. The one-reader discipline retains r2 (r1 does
// not serially follow it) and w's check against r2 finds no race —
// the racy reader r1 is masked. The ordered protocol retains r1 as
// the Hebrew-max reader and flags the race.
func TestOrderedProtocolCatchesMaskedReader(t *testing.T) {
	const r1, r2, w = 1, 2, 3
	eng := map[int]int{r1: 1, r2: 2, w: 3}
	heb := map[int]int{r2: 1, w: 2, r1: 3}
	rel := func(cur int) orderedRel { return orderedRel{eng: eng, heb: heb, cur: cur} }

	// One-reader protocol: misses (this documents WHY the serial
	// discipline must not be used off the depth-first order).
	var q int64
	serial := &Cell[int]{}
	OnAccess(serial, rel(r2), r2, nil, false, &q)
	OnAccess(serial, rel(r1), r1, nil, false, &q)
	if f, ok := OnAccess(serial, rel(w), w, nil, true, &q); ok {
		t.Fatalf("one-reader protocol unexpectedly caught the race (%+v); update this test's premise", f)
	}

	// Two-reader ordered protocol: catches r1 ∥ w.
	ordered := &Cell[int]{}
	if f, ok := OnAccessOrdered(ordered, rel(r2), r2, nil, false, &q); ok {
		t.Fatalf("first read raced: %+v", f)
	}
	if f, ok := OnAccessOrdered(ordered, rel(r1), r1, nil, false, &q); ok {
		t.Fatalf("second read raced: %+v", f)
	}
	f, ok := OnAccessOrdered(ordered, rel(w), w, nil, true, &q)
	if !ok || f.Kind != ReadWrite || f.Prev != r1 {
		t.Fatalf("ordered protocol found %+v, want ReadWrite vs r1", f)
	}
}

// TestOrderedProtocolSerialEquivalence drives both protocols over a
// serial (English-order) execution with the serial-stream order
// equivalence (English-before constantly true, Hebrew-before =
// precedes) and checks the ordered protocol flags a superset of the
// serial one, and exactly the same locations when each location's
// race is reachable serially.
func TestOrderedProtocolSerialEquivalence(t *testing.T) {
	// a ≺ b, a ∥ c, b ∥ c, all reading/writing one cell in English
	// order a, b, c.
	eng := map[int]int{1: 1, 2: 2, 3: 3}
	heb := map[int]int{1: 1, 3: 2, 2: 3} // c=3 swapped before b=2: b ∥ c, a ≺ both
	rel := func(cur int) orderedRel { return orderedRel{eng: eng, heb: heb, cur: cur} }
	var q1, q2 int64
	serial, ordered := &Cell[int]{}, &Cell[int]{}
	for _, step := range []struct {
		who   int
		write bool
	}{{1, false}, {2, false}, {3, true}} {
		fs, sok := OnAccess(serial, rel(step.who), step.who, nil, step.write, &q1)
		fo, ook := OnAccessOrdered(ordered, rel(step.who), step.who, nil, step.write, &q2)
		if sok != ook {
			t.Fatalf("protocols disagree at accessor %d: serial %+v, ordered %+v", step.who, fs, fo)
		}
	}
}

// TestAllocsFirstAccess pins a first access to a new address at no
// object of its own: its cell is carved from the shard's pages, and
// the pages and the cell map's growth cost well under one allocation
// per new address.
func TestAllocsFirstAccess(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := NewMemory[int, struct{}](1)
	addr := uint64(0)
	first := func() {
		access(m, addr, serialRel{}, 1, nil, true)
		addr++
	}
	if n := testing.AllocsPerRun(1000, first); n != 0 {
		t.Fatalf("a first access to a new address allocates %v objects, want 0", n)
	}
	if hits, _ := totals(m); hits != int64(addr) {
		t.Fatalf("%d accesses counted, want %d", hits, addr)
	}
}

// TestShardHeaderFillsCacheLine pins the shard's own fields at one
// 64-byte cache line, so a shard fills whole lines when the caller's
// state does.
func TestShardHeaderFillsCacheLine(t *testing.T) {
	var s Shard[int, [8]int64]
	if off, n := unsafe.Offsetof(s.X), unsafe.Sizeof(s); off != 64 || n != 128 {
		t.Fatalf("a shard keeps its caller's state at byte %d and takes %d bytes with 64 bytes of it, want 64 and 128", off, n)
	}
}
