package sp

// Observability integration tests: the registry's race-log and access
// series after Report on a live lock-free monitor, the consistency
// guarantees of registry snapshots taken while monitors sharing the
// registry run and report, and the guard benchmark pair showing that an
// attached registry adds nothing to the access path.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/sp/metrics"
)

// hammerMonitor drives g goroutine-threads through th.Read/th.Write:
// race-free reads of shared addresses 0..63 (written by main before the
// fork), private writes, and — when racy is true — writes to a handful
// of shared cells that race across every worker pair.
func hammerMonitor(m *Monitor, g, per int, racy bool) {
	cur := m.Thread(m.Main())
	for a := uint64(0); a < 64; a++ {
		cur.Write(a)
	}
	workers := make([]Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(th Thread, rng uint64) {
			defer wg.Done()
			priv := uint64(1)<<32 + uint64(th.ID())<<16
			for k := 0; k < per; k++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				switch {
				case racy && k%64 == 0:
					th.Write(1<<20 + rng%4) // shared racy cells
				case rng%8 == 0:
					th.Write(priv + rng%256)
				default:
					th.Read(rng % 64)
				}
			}
		}(workers[i], uint64(i+1)*0x9e3779b97f4a7c15)
	}
	wg.Wait()
	for i := g - 1; i >= 0; i-- {
		cur = workers[i].Join(cur)
	}
}

// TestRaceShardEmitsReconcileReport checks what Report publishes from a
// racy live sp-hybrid monitor: each race-log shard's series reads its
// page count, the counts sum to the reported races, and the access and
// shadow-shard series read the Report's accesses and the shards' hits.
func TestRaceShardEmitsReconcileReport(t *testing.T) {
	g := 4 * runtime.NumCPU()
	reg := metrics.NewRegistry()
	m := MustMonitor(WithBackend("sp-hybrid"), WithWorkers(g), WithMetrics(reg))
	hammerMonitor(m, g, 300, true)
	rep := m.Report()

	if len(rep.Races) == 0 {
		t.Fatal("planted racy cells produced no races")
	}
	regShards := reg.CounterValues("sp_racelog_shard_emits_total")
	if len(regShards) != m.mem.NumShards() {
		t.Fatalf("registry has %d race-log shard series, monitor %d shards", len(regShards), m.mem.NumShards())
	}
	var logged, shardHits int64
	for i := range m.mem.NumShards() {
		sh := m.mem.LockShard(i)
		var n int64
		for _, p := range sh.X.races {
			n += int64(len(p))
		}
		shardHits += sh.Hits
		sh.Unlock()
		if regShards[i] != n {
			t.Fatalf("shard %d: registry counts %d emits, its pages hold %d races", i, regShards[i], n)
		}
		logged += n
	}
	if logged != int64(len(rep.Races)) {
		t.Fatalf("race-log pages hold %d races, Report has %d", logged, len(rep.Races))
	}
	snap := m.Metrics()
	if got := snap.Sum("sp_monitor_access_total"); got != float64(rep.Accesses) {
		t.Fatalf("access_total = %v, Report.Accesses = %d", got, rep.Accesses)
	}
	if got := snap.Sum("sp_shadow_shard_accesses_total"); got != float64(shardHits) {
		t.Fatalf("registry shard accesses = %v, shadow shard hit counters = %d", got, shardHits)
	}
}

// TestMetricsSnapshotConsistencyUnderStress takes registry snapshots
// concurrently with three sp-hybrid monitors that share the registry,
// as sptraced's streams do: each runs NumCPU×4 monitored goroutines and
// then reports, publishing its counts. It asserts the documented
// snapshot guarantees: every counter series is monotone across
// successive snapshots and high-water gauges never decrease. After the
// last Report the access series sum the three reports.
func TestMetricsSnapshotConsistencyUnderStress(t *testing.T) {
	g := 4 * runtime.NumCPU()
	reg := metrics.NewRegistry()

	stop := make(chan struct{})
	done := make(chan struct{})
	var snapErr atomic.Pointer[string]
	var snaps atomic.Int64
	go func() {
		defer close(done)
		// Last-seen value per counter series and per high-water gauge.
		prev := map[string]float64{}
		highWater := map[string]bool{"sp_om_pending_highwater": true}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			for _, f := range snap.Families {
				monotone := f.Type == metrics.TypeCounter || highWater[f.Name]
				if !monotone {
					continue
				}
				for _, ser := range f.Series {
					key := f.Name + fmt.Sprint(ser.Labels)
					if ser.Value < prev[key] {
						msg := fmt.Sprintf("snapshot %d: %s went backwards: %v -> %v",
							i, key, prev[key], ser.Value)
						snapErr.Store(&msg)
						return
					}
					prev[key] = ser.Value
				}
			}
			snaps.Add(1)
		}
	}()
	var accesses int64
	for range 3 {
		m := MustMonitor(WithBackend("sp-hybrid"), WithWorkers(g), WithMetrics(reg))
		hammerMonitor(m, g, 200, false)
		rep := m.Report()
		if len(rep.Races) != 0 {
			t.Fatalf("race-free workload reported %d races", len(rep.Races))
		}
		accesses += rep.Accesses
		// Let a snapshot see this monitor's publish before the next runs.
		for n := snaps.Load(); snaps.Load() == n && snapErr.Load() == nil; {
			runtime.Gosched()
		}
	}
	close(stop)
	<-done
	if msg := snapErr.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if got := reg.Snapshot().Sum("sp_monitor_access_total"); got != float64(accesses) {
		t.Fatalf("access_total = %v, the reports' accesses = %d", got, accesses)
	}
}

// benchConcurrentAccess is the shared body of the guard benchmark pair:
// GOMAXPROCS goroutine-threads on one live sp-hybrid monitor, reading
// shared race-free addresses and writing private ones on a lock-free
// monitor.
func benchConcurrentAccess(b *testing.B, opts ...Option) {
	g := runtime.GOMAXPROCS(0)
	m := MustMonitor(append(opts, WithBackend("sp-hybrid"), WithWorkers(g))...)
	cur := m.Thread(m.Main())
	for a := uint64(0); a < 64; a++ {
		cur.Write(a)
	}
	workers := make([]Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th := workers[int(next.Add(1)-1)%g]
		priv := uint64(1)<<32 + uint64(th.ID())<<16
		rng := uint64(th.ID())*0x9e3779b97f4a7c15 + 1
		for pb.Next() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if rng%16 == 0 {
				th.Write(priv + rng%256)
			} else {
				th.Read(rng % 64)
			}
		}
	})
}

// BenchmarkConcurrentAccess is the uninstrumented access path — the guard
// baseline. BenchmarkConcurrentAccessMetrics is the same workload with
// a registry attached. An access writes no registry instrument, so CI
// runs the pair to show that the two stay within noise.
func BenchmarkConcurrentAccess(b *testing.B) {
	benchConcurrentAccess(b)
}

func BenchmarkConcurrentAccessMetrics(b *testing.B) {
	benchConcurrentAccess(b, WithMetrics(metrics.NewRegistry()))
}

// TestLockAwareCommonLockAsksNoQuery pins the order of ALL-SETS's race
// check: a conflicting history entry whose lock set meets the access's
// is settled without asking the backend. On a lock-aware depa monitor,
// whose every SP query adds one sp_depa_walk_steps sample, k parallel
// threads write one address, each holding one mutex: no write adds a
// sample. The same writes to another address without the mutex add one
// sample per conflicting entry, each a race. Report.Queries counts one
// query per conflicting entry at both addresses.
func TestLockAwareCommonLockAsksNoQuery(t *testing.T) {
	const k = 8
	reg := metrics.NewRegistry()
	m := MustMonitor(WithBackend("depa"), WithLockAwareness(true), WithMetrics(reg))
	walks := func() int64 {
		for _, f := range reg.Snapshot().Families {
			if f.Name == "sp_depa_walk_steps" {
				return f.Series[0].Count
			}
		}
		return 0
	}
	threads := make([]ThreadID, k)
	cur := m.Main()
	for i := range threads {
		threads[i], cur = m.Fork(cur)
	}
	conflicts := int64(k * (k - 1) / 2) // the i-th write meets i entries
	before := walks()
	for _, th := range threads {
		m.Acquire(th, 1)
		m.Write(th, 7)
		m.Release(th, 1)
	}
	if got := walks() - before; got != 0 {
		t.Errorf("%d writes under one mutex asked the backend %d times, want 0", k, got)
	}
	before = walks()
	for _, th := range threads {
		m.Write(th, 9)
	}
	if got := walks() - before; got != conflicts {
		t.Errorf("%d unlocked writes asked the backend %d times, want %d", k, got, conflicts)
	}
	if rep := m.Report(); rep.Queries != 2*conflicts || int64(len(rep.Races)) != conflicts {
		t.Errorf("%d queries and %d races, want %d and %d: one query per conflicting entry, one race per unlocked one",
			rep.Queries, len(rep.Races), 2*conflicts, conflicts)
	}
}
