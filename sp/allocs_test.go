package sp

import (
	"testing"
	"unsafe"
)

// The allocation guards count heap objects per event, which the race
// detector's instrumentation changes, so they skip under -race. CI runs
// them without it: go test ./sp/... -run Allocs.

// TestAllocsRacingWrite pins a detected race at no allocation: the
// shadow protocol returns its finding by value and the race log's
// pages are allocated once per 512 races, so a racing Write on a
// warmed-up sp-order monitor allocates nothing.
func TestAllocsRacingWrite(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := MustMonitor(WithBackend("sp-order"))
	l, r := m.Fork(m.Main())
	writers := [2]ThreadID{l, r}
	i := 0
	write := func() {
		m.Write(writers[i&1], 7) // races with the other side's last write
		i++
	}
	for range 2 * racePage {
		write()
	}
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Fatalf("a racing Write allocates %v objects, want 0", n)
	}
	if got := len(m.Report().Races); got != i-1 {
		t.Fatalf("%d writes logged %d races, want %d", i, got, i-1)
	}
}

// TestAllocsBindRel pins binding a thread's query view at no
// allocation on sp-order: the edge composer lives in the thread's
// state, and the backend's handle in a page it allocated already.
func TestAllocsBindRel(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := MustMonitor(WithBackend("sp-order"))
	l, _ := m.Fork(m.Main())
	if n := testing.AllocsPerRun(1000, func() { m.bindRel(l) }); n != 0 {
		t.Fatalf("bindRel allocates %v objects, want 0", n)
	}
}

// TestAllocsRaceEntrySize pins the race log's per-race cost.
func TestAllocsRaceEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(raceEntry{}); n > 64 {
		t.Fatalf("a race-log entry takes %d bytes, want at most 64", n)
	}
}

// TestAllocsThreadStateSize pins a thread's bookkeeping in the 128-byte
// allocation size class: the state embeds the backend's handle and
// holds the Monitor its edge-aware ParallelCurrent asks, where a
// separate composer would hold both and a pointer back to the state.
func TestAllocsThreadStateSize(t *testing.T) {
	if n := unsafe.Sizeof(threadState{}); n > 128 {
		t.Fatalf("a thread's state takes %d bytes, want at most 128", n)
	}
}
