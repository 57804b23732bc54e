package sp_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/sp"
	"repro/sp/trace"
)

// TestLockAwareConcurrentTraceRecording records a lock-aware monitor on
// each concurrent backend from live goroutines. A recording monitor
// applies every event under its mutex, accesses included, so the trace
// is race-free (-race in CI checks the encoder) and replayable, and the
// lock suppression must hold both live and on replay: the
// lock-protected cell never races, the unprotected one does.
// Instrumented binaries (sp/spsync) run exactly this configuration when
// SPSYNC_TRACE is set.
func TestLockAwareConcurrentTraceRecording(t *testing.T) {
	for _, backend := range []string{"sp-hybrid", "depa"} {
		var buf bytes.Buffer
		m, err := sp.NewMonitor(
			sp.WithBackend(backend),
			sp.WithLockAwareness(true),
			sp.WithTrace(&buf),
		)
		if err != nil {
			t.Fatal(err)
		}

		const workers = 8
		cur := m.Main()
		lefts := make([]sp.ThreadID, workers)
		for i := 0; i < workers; i++ {
			lefts[i], cur = m.Fork(cur)
		}
		var wg sync.WaitGroup
		for i, left := range lefts {
			wg.Add(1)
			go func(t sp.ThreadID, i int) {
				defer wg.Done()
				m.Acquire(t, 1)
				m.ReadAt(t, 7, "locked-read")
				m.WriteAt(t, 7, "locked-write")
				m.Release(t, 1)
				m.WriteAt(t, 100+uint64(i), "private")
				m.WriteAt(t, 9, "unlocked") // genuinely racy across workers
			}(left, i)
		}
		wg.Wait()
		for i := workers - 1; i >= 0; i-- {
			cur = m.Join(lefts[i], cur)
		}
		rep := m.Report()
		if err := m.TraceErr(); err != nil {
			t.Fatalf("%s: trace error: %v", backend, err)
		}

		var raced []uint64
		for _, l := range rep.Locations {
			raced = append(raced, l)
		}
		if len(raced) != 1 || raced[0] != 9 {
			t.Fatalf("%s: raced locations %v, want [9] (lock-protected 7 suppressed)", backend, raced)
		}

		// The concurrently recorded trace must replay: it is
		// creation-respecting, so an any-order backend applies it, and
		// the lock-aware replay reproduces the verdict.
		m2 := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithLockAwareness(true))
		if err := trace.Replay(bytes.NewReader(buf.Bytes()), m2); err != nil {
			t.Fatalf("%s: replaying concurrent lock-aware recording: %v", backend, err)
		}
		rep2 := m2.Report()
		if len(rep2.Locations) != 1 || rep2.Locations[0] != 9 {
			t.Fatalf("%s: replay raced locations %v, want [9]", backend, rep2.Locations)
		}
		if rep2.Accesses != rep.Accesses || rep2.Forks != rep.Forks || rep2.Joins != rep.Joins {
			t.Fatalf("%s: replay counters diverge: %d/%d/%d vs %d/%d/%d", backend,
				rep2.Accesses, rep2.Forks, rep2.Joins, rep.Accesses, rep.Forks, rep.Joins)
		}
	}
}
