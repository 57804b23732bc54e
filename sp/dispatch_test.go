package sp

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/sp/metrics"
)

// TestMonitorDispatchRule pins the Monitor's one locking rule on every
// registered backend, with and without lock-awareness and a trace: a
// monitor is lock-free iff its backend is Synchronized and no trace is
// recorded. Each event runs in its
// own goroutine while the test holds the monitor mutex. A lock-free
// monitor must finish every event regardless; any other monitor must
// still be blocked after a grace period and finish once the mutex is
// released. A slow event can only look blocked, which is the expected
// outcome on a serialized monitor and fails a lock-free one only after
// a long timeout, so scheduling noise cannot flip the verdict.
func TestMonitorDispatchRule(t *testing.T) {
	for _, info := range Backends() {
		for _, lockAware := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s/lockaware=%v/trace=%v", info.Name, lockAware, traced)
				t.Run(name, func(t *testing.T) {
					checkDispatchRule(t, info, lockAware, traced)
				})
			}
		}
	}
}

func checkDispatchRule(t *testing.T, info BackendInfo, lockAware, traced bool) {
	reg := metrics.NewRegistry()
	opts := []Option{WithBackend(info.Name), WithLockAwareness(lockAware), WithMetrics(reg)}
	if traced {
		opts = append(opts, WithTrace(io.Discard))
	}
	m := MustMonitor(opts...)
	lockFree := info.Synchronized && !traced

	// One serial depth-first program touching every event kind: the
	// left branch runs (and publishes an edge) before the right branch
	// observes it, which every backend accepts.
	const x = 1
	root := m.Main()
	var l, r, l2, cont ThreadID
	var rel Relation
	steps := []struct {
		name string
		run  func()
	}{
		{"Begin", func() { m.Begin(root) }},
		{"Write", func() { m.Write(root, x) }},
		{"Fork", func() { l, r = m.Fork(root) }},
		{"Read", func() { m.Read(l, x) }},
		{"Acquire", func() { m.Acquire(l, 1) }},
		{"Release", func() { m.Release(l, 1) }},
		{"Put", func() { l2 = m.Put(l) }},
		{"Get", func() { m.Get(r, l) }},
		{"Relation", func() { rel = m.Relation(l, r) }},
		{"Join", func() { cont = m.Join(l2, r) }},
		{"Write on the continuation", func() { m.Write(cont, x) }},
	}
	for _, s := range steps {
		done := make(chan struct{})
		m.mu.Lock()
		go func() {
			defer close(done)
			s.run()
		}()
		if lockFree {
			select {
			case <-done:
				m.mu.Unlock()
			case <-time.After(10 * time.Second):
				m.mu.Unlock()
				<-done
				t.Fatalf("%s blocked on the monitor mutex of a lock-free monitor", s.name)
			}
			continue
		}
		select {
		case <-done:
			m.mu.Unlock()
			t.Fatalf("%s finished while the monitor mutex was held", s.name)
		case <-time.After(20 * time.Millisecond):
		}
		m.mu.Unlock()
		<-done
	}
	if rel != Parallel {
		t.Fatalf("Relation(left, right) = %v, want parallel", rel)
	}

	rep := m.Report()
	if rep.Accesses != 3 || rep.Puts != 1 || rep.Gets != 1 {
		t.Fatalf("report counters %+v, want 3 accesses, 1 put, 1 get", rep)
	}
	snap := reg.Snapshot()
	fast, _ := snap.Value("sp_monitor_access_total", "path", "fast")
	serial, _ := snap.Value("sp_monitor_access_total", "path", "serial")
	want := [2]float64{0, 3}
	if lockFree {
		want = [2]float64{3, 0}
	}
	if got := [2]float64{fast, serial}; got != want {
		t.Fatalf("sp_monitor_access_total fast/serial = %v, want %v", got, want)
	}
}
