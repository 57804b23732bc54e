package sp

import (
	"testing"

	"repro/internal/paged"
)

// TestRaceLogPagedShard grows one race-log shard across many pages:
// every race is on one address, so on one shard. Page capacities must
// double from 1 up to paged.MaxPage, every page but the last must be full,
// and Report must list every race once, in detection order.
func TestRaceLogPagedShard(t *testing.T) {
	const races = 2500 // pages of 1, 2, ..., 512 races, then three more
	m := MustMonitor(WithWorkers(1))
	// Each spawned thread writes x7 after the previous one did, in
	// parallel with it: race k is between writers k and k+1.
	var writers []ThreadID
	cur := m.Main()
	for k := 0; k <= races; k++ {
		var w ThreadID
		w, cur = m.Fork(cur)
		m.Write(w, 7)
		writers = append(writers, w)
	}
	rep := m.Report()
	sh := m.mem.Lock(7)
	pages := sh.X.races
	sh.Unlock()
	if len(pages) != 13 {
		t.Fatalf("%d races fill %d pages, want 13", races, len(pages))
	}
	for i, p := range pages {
		if want := min(1<<i, paged.MaxPage); cap(p) != want || (i < len(pages)-1 && len(p) != want) {
			t.Fatalf("page %d holds %d races in capacity %d, want capacity %d and full unless last",
				i, len(p), cap(p), want)
		}
	}
	if len(rep.Races) != races {
		t.Fatalf("report holds %d races, want %d", len(rep.Races), races)
	}
	for k, r := range rep.Races {
		if r.Addr != 7 || r.Kind != WriteWrite || r.First != writers[k] || r.Second != writers[k+1] {
			t.Fatalf("race %d is %v, want write-write on x7 between t%d and t%d", k, r, writers[k], writers[k+1])
		}
	}
}

// TestRaceLogLockPairs fills one shard's lock-set pair list across
// several pages. Writers 2i and 2i+1 hold mutex i, so each writer races
// with every earlier writer but its twin, and its races against one
// pair of twins share a pair. Every reported race must carry the lock
// sets its two threads held.
func TestRaceLogLockPairs(t *testing.T) {
	const writers = 70
	m := MustMonitor(WithWorkers(1), WithLockAwareness(true))
	held := map[ThreadID]LockSet{}
	cur := m.Main()
	for k := range writers {
		var w ThreadID
		w, cur = m.Fork(cur)
		m.Acquire(w, k/2)
		m.Write(w, 7)
		m.Release(w, k/2)
		held[w] = LockSet{k / 2}
	}
	rep := m.Report()
	if want := writers*(writers-1)/2 - writers/2; len(rep.Races) != want {
		t.Fatalf("%d writers raced %d times, want %d", writers, len(rep.Races), want)
	}
	sh := m.mem.Lock(7)
	pages := sh.X.pairs
	sh.Unlock()
	pairs := 0
	for _, p := range pages {
		pairs += len(p)
	}
	if len(pages) < 11 || 2*pairs > len(rep.Races)+writers {
		t.Fatalf("%d races stored %d lock-set pairs on %d pages, want about one pair per two races on at least 11 pages",
			len(rep.Races), pairs, len(pages))
	}
	for i, r := range rep.Races {
		if !r.FirstLocks.Equal(held[r.First]) || !r.SecondLocks.Equal(held[r.Second]) {
			t.Fatalf("race %d is %v, want lock sets %v and %v", i, r, held[r.First], held[r.Second])
		}
	}
}
