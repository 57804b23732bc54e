package sp

// Observability integration tests: the reconciliation invariant between
// the sharded race log and Report (satellite of the sp/metrics PR), the
// consistency guarantees of registry snapshots taken while a monitor is
// under concurrent load, and the guard benchmark pair pinning the cost
// of the disabled-metrics hot path.

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

// TestRaceShardEmitsReconcileReport pins the one-layer reconciliation
// of the race log: every emit appends to the owning shard's pages and
// increments that shard's registry counter exactly once, under the
// shard lock, so the per-shard page counts, the registry mirrors and
// the length of the reported race list all agree.
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
	if len(regShards) != len(m.raceShards) {
		t.Fatalf("registry has %d race-log shard series, monitor %d shards", len(regShards), len(m.raceShards))
	}
	var logged int64
	for i := range m.raceShards {
		var n int64
		for _, p := range m.raceShards[i].pages {
			n += int64(len(p))
		}
		if regShards[i] != n {
			t.Fatalf("shard %d: registry counts %d emits, its pages hold %d races", i, regShards[i], n)
		}
		logged += n
	}
	if logged != int64(len(rep.Races)) {
		t.Fatalf("race-log pages hold %d races, Report has %d", logged, len(rep.Races))
	}
	snap := reg.Snapshot()
	if got := snap.Sum("sp_monitor_access_total"); got != float64(rep.Accesses) {
		t.Fatalf("access_total = %v, Report.Accesses = %d", got, rep.Accesses)
	}
	var shardHits int64
	for _, h := range m.mem.ShardHits() {
		shardHits += h
	}
	if got := snap.Sum("sp_shadow_shard_accesses_total"); got != float64(shardHits) {
		t.Fatalf("registry shard accesses = %v, shadow shard hit counters = %d", got, shardHits)
	}
}

// TestMetricsSnapshotConsistencyUnderStress takes registry snapshots
// concurrently with NumCPU×4 monitored goroutines and asserts the
// documented snapshot guarantees: every counter series is monotone
// across successive snapshots and high-water gauges never decrease.
func TestMetricsSnapshotConsistencyUnderStress(t *testing.T) {
	g := 4 * runtime.NumCPU()
	reg := metrics.NewRegistry()
	m := MustMonitor(WithBackend("sp-hybrid"), WithWorkers(g), WithMetrics(reg))

	done := make(chan struct{})
	var snapErr atomic.Pointer[string]
	go func() {
		defer close(done)
		// Last-seen value per counter series and per high-water gauge.
		prev := map[string]float64{}
		highWater := map[string]bool{"sp_om_pending_highwater": true}
		for i := 0; i < 200; i++ {
			snap := m.Metrics()
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
		}
	}()
	hammerMonitor(m, g, 200, false)
	<-done
	if msg := snapErr.Load(); msg != nil {
		t.Fatal(*msg)
	}
	rep := m.Report()
	if len(rep.Races) != 0 {
		t.Fatalf("race-free workload reported %d races", len(rep.Races))
	}
	snap := m.Metrics()
	if got := snap.Sum("sp_monitor_access_total"); got != float64(rep.Accesses) {
		t.Fatalf("access_total = %v, Report.Accesses = %d", got, rep.Accesses)
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
// a registry attached; CI runs the pair to keep the disabled-metrics
// cost (one predictable nil-check per hook) within noise and the
// enabled cost honest.
func BenchmarkConcurrentAccess(b *testing.B) {
	benchConcurrentAccess(b)
}

func BenchmarkConcurrentAccessMetrics(b *testing.B) {
	benchConcurrentAccess(b, WithMetrics(metrics.NewRegistry()))
}
