package sp

import (
	"testing"
	"unsafe"

	"repro/internal/paged"
	"repro/sp/metrics"
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
	for range 2 * paged.MaxPage {
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
// allocation on every backend: the edge composer lives in the thread's
// state, and the backend's handle in the thread's slot of a table that
// exists already.
func TestAllocsBindRel(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, backend := range BackendNames() {
		m := MustMonitor(WithBackend(backend))
		l, _ := m.Fork(m.Main())
		st := m.state(l)
		if n := testing.AllocsPerRun(1000, func() { m.bindRel(l, st) }); n != 0 {
			t.Errorf("%s: bindRel allocates %v objects, want 0", backend, n)
		}
	}
}

// TestAllocsPerThread pins the heap objects one warmed-up step of a
// thread's life allocates: a Fork, a Write to a new address, a Read, a
// Join and a Put. Thread states, handles, list items, shadow cells and
// depa's thread labels sit in pages that amortize below one object per
// step, and a Put with no observed tokens publishes its one-token set
// from the putter's slot. What remains is, on depa, the base label each
// of the step's two forks (the Fork and the Put's diamond) allocates:
// the guard reads 0, 0 and 2, one below each bound.
func TestAllocsPerThread(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		backend string
		want    float64
	}{{"sp-order", 1}, {"sp-hybrid", 1}, {"depa", 3}} {
		m := MustMonitor(WithBackend(tc.backend))
		cur, addr := m.Main(), uint64(0)
		step := func() {
			l, r := m.Fork(cur)
			m.Write(l, addr)
			m.Read(r, addr)
			cur = m.Put(m.Join(l, r))
			addr++
		}
		for range 1000 {
			step()
		}
		if n := testing.AllocsPerRun(1000, step); n > tc.want {
			t.Errorf("%s: a fork, write, read, join and put allocate %v objects, want at most %v", tc.backend, n, tc.want)
		}
	}
}

// TestAllocsLockAwareWrite pins an ALL-SETS access under a held mutex
// at no allocation on the any-order backends: the access records the
// thread's lock set, which Acquire and Release keep current, as it is.
func TestAllocsLockAwareWrite(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, backend := range []string{"sp-order", "sp-hybrid", "depa"} {
		m := MustMonitor(WithBackend(backend), WithLockAwareness(true))
		main := m.Main()
		m.Acquire(main, 1)
		m.Write(main, 7)
		if n := testing.AllocsPerRun(1000, func() { m.Write(main, 7) }); n != 0 {
			t.Errorf("%s: a lock-aware Write under a held mutex allocates %v objects, want 0", backend, n)
		}
	}
}

// TestAllocsMonitorWithMetrics bounds the objects a monitor with
// metrics allocates outside its events, which sptraced pays once per
// stream: construction with WithWorkers(2) against a registry other
// monitors have already filled, and Report. The bounds are half the 357
// and 358 objects it took while each instrument lookup formatted its
// labels with fmt; it reads 87 and 88.
func TestAllocsMonitorWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		backend string
		want    float64
	}{{"sp-order", 357 / 2}, {"sp-hybrid", 358 / 2}} {
		reg := metrics.NewRegistry()
		opts := []Option{WithBackend(tc.backend), WithWorkers(2), WithMetrics(reg)}
		MustMonitor(opts...).Report()
		if n := testing.AllocsPerRun(100, func() { MustMonitor(opts...).Report() }); n > tc.want {
			t.Errorf("%s: a monitor with metrics allocates %v objects to construct and report, want at most %v", tc.backend, n, tc.want)
		}
	}
}

// TestAllocsRaceEntrySize pins the race log's per-race cost.
func TestAllocsRaceEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(raceEntry{}); n > 64 {
		t.Fatalf("a race-log entry takes %d bytes, want at most 64", n)
	}
}

// TestAllocsShardSize pins a shadow-memory shard with the monitor's
// state at whole 64-byte cache lines, so the shard locks of a hot
// monitor do not false-share.
func TestAllocsShardSize(t *testing.T) {
	if n := unsafe.Sizeof(monitorShard{}); n%64 != 0 {
		t.Fatalf("a shard takes %d bytes, want a multiple of 64", n)
	}
}

// TestAllocsThreadStateSize pins a thread's bookkeeping, its slot in the
// monitor's thread table, at 128 bytes: the state embeds the backend's
// handle and holds the Monitor its edge-aware ParallelCurrent asks,
// where a separate composer would hold both and a pointer back to the
// state.
func TestAllocsThreadStateSize(t *testing.T) {
	if n := unsafe.Sizeof(threadState{}); n > 128 {
		t.Fatalf("a thread's state takes %d bytes, want at most 128", n)
	}
}
