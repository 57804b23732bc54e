package sp

import (
	"io"
	"slices"
	"strconv"

	"repro/sp/metrics"
)

// WithMetrics attaches a metrics registry to the Monitor: every layer —
// the monitor's event dispatch, the shadow-memory shards, the sharded
// race log, and the backend (sp-hybrid's batched OM tier, depa's label
// walks) — shows in shared registry instruments. Instruments are
// get-or-create by name, so many monitors may share one registry (the
// sptraced fleet does): their counts aggregate, and the counters
// survive any individual monitor's retirement.
//
// Each counter reads a count its layer already keeps for Report, and
// Report publishes it: every Report adds what the layers counted since
// the previous one, so a second Report adds only what accesses still in
// flight on a lock-free monitor counted. The counter series therefore
// move when Report runs, not on every event, and an attached registry
// adds nothing to an access. What nothing else counts is recorded as it
// happens: the acquire and release events, the histograms
// (sp_om_batch_size, sp_depa_*) and the trace-byte counter.
func WithMetrics(reg *metrics.Registry) Option { return func(c *config) { c.reg = reg } }

// monitorMetrics is the Monitor's instrument set, resolved once at
// construction so no event looks an instrument up by name.
type monitorMetrics struct {
	reg *metrics.Registry

	// Recorded as the events happen: nothing else counts them.
	evAcquire, evRelease *metrics.Counter
	traceBytes           *metrics.Counter

	// Published by Report from the monitor's own counts. accesses is the
	// access_total series of the monitor's dispatch path.
	threads, begins, forks, joins, puts, gets published
	reads, writes, accesses, queries          published
	shardHits, raceShardEmits                 []published

	// backend publishes the backend's own counts; nil when the backend
	// keeps none.
	backend func()
}

// published is a registry counter fed from a count its component
// keeps: set adds what the count gained since the previous set, so
// monitors sharing the counter sum. Only Report calls set, under the
// monitor mutex.
type published struct {
	c    *metrics.Counter
	sent int64
}

// set publishes the count's current value n.
func (p *published) set(n int64) {
	if n > p.sent {
		p.c.Add(n - p.sent)
		p.sent = n
	}
}

// newMonitorMetrics resolves the monitor-level instruments against reg
// and registers the derived shard-imbalance gauge. Both access paths'
// series are registered, and the monitor publishes its accesses into
// the lock-free one iff lockFree. The imbalance hook closes over the
// registry only — never over a monitor — so registries shared across
// many short-lived monitors (one per ingested stream) hold no reference
// to retired ones.
func newMonitorMetrics(reg *metrics.Registry, shards int, lockFree bool) *monitorMetrics {
	event := func(op string) published {
		return published{c: reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", op)}
	}
	mx := &monitorMetrics{
		reg:       reg,
		forks:     event("fork"),
		joins:     event("join"),
		begins:    event("begin"),
		reads:     event("read"),
		writes:    event("write"),
		evAcquire: event("acquire").c,
		evRelease: event("release").c,
		puts:      event("put"),
		gets:      event("get"),
	}
	fast := reg.Counter("sp_monitor_access_total", "memory accesses, by dispatch path", "path", "fast")
	serial := reg.Counter("sp_monitor_access_total", "memory accesses, by dispatch path", "path", "serial")
	mx.accesses.c = serial
	if lockFree {
		mx.accesses.c = fast
	}
	mx.queries.c = reg.Counter("sp_monitor_queries_total", "SP queries issued by the detection protocol")
	mx.threads.c = reg.Counter("sp_monitor_threads_total", "threads created")
	mx.traceBytes = reg.Counter("sp_monitor_trace_bytes_total", "bytes flushed to the trace writer")
	mx.shardHits = make([]published, shards)
	mx.raceShardEmits = make([]published, shards)
	for i := 0; i < shards; i++ {
		shard := strconv.Itoa(i)
		mx.shardHits[i].c = reg.Counter("sp_shadow_shard_accesses_total",
			"accesses landing on each shadow-memory shard", "shard", shard)
		mx.raceShardEmits[i].c = reg.Counter("sp_racelog_shard_emits_total",
			"races emitted into each race-log shard", "shard", shard)
	}
	imb := reg.Gauge("sp_shadow_shard_imbalance", "max/mean ratio of per-shard shadow access counts (1 = perfectly balanced)")
	reg.CollectOnce("sp_shadow_shard_imbalance", func() {
		imb.Set(imbalance(reg.CounterValues("sp_shadow_shard_accesses_total")))
	})
	return mx
}

// publish adds to the registry what the monitor counted since the
// previous Report: rep's structural counts, the threads that began,
// the accesses by kind, the detection protocol's SP queries, and each
// shard's detection accesses (hits) and race-log entries (emits). The
// backend publishes its own counts last. The caller holds m.mu.
func (mx *monitorMetrics) publish(rep *Report, begun, reads, writes, queries int64, hits, emits []int64) {
	mx.threads.set(rep.Threads)
	mx.begins.set(begun)
	mx.forks.set(rep.Forks)
	mx.joins.set(rep.Joins)
	mx.puts.set(rep.Puts)
	mx.gets.set(rep.Gets)
	mx.reads.set(reads)
	mx.writes.set(writes)
	mx.accesses.set(reads + writes)
	mx.queries.set(queries)
	for i := range mx.shardHits {
		mx.shardHits[i].set(hits[i])
		mx.raceShardEmits[i].set(emits[i])
	}
	if mx.backend != nil {
		mx.backend()
	}
}

// imbalance returns max/mean of the counts (0 when empty or all-zero).
func imbalance(counts []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(slices.Max(counts)) / (float64(total) / float64(len(counts)))
}

// Metrics returns a point-in-time snapshot of the registry attached
// with WithMetrics (an empty snapshot without one). The snapshot is
// internally consistent per instrument — counters are monotone across
// successive snapshots and high-water gauges never decrease — and it
// covers every layer the registry instruments, including counts from
// other monitors sharing the registry. This monitor's counters include
// what it counted up to its last Report (see WithMetrics): take the
// snapshot after Report to read the whole run.
func (m *Monitor) Metrics() metrics.Snapshot {
	if m.mx == nil {
		return metrics.Snapshot{}
	}
	return m.mx.reg.Snapshot()
}

// countingWriter counts bytes reaching the trace writer.
type countingWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// instrumentable is the optional backend capability of recording into
// a metrics registry. The Monitor calls instrument at construction when
// WithMetrics is set; it resolves the backend's instruments and returns
// the function that publishes the backend's own counts into them,
// which Report calls under the monitor mutex, or nil when the backend
// records only as it goes (sp-hybrid publishes its drain and OM counts;
// depa records its label-depth and walk-length histograms live).
type instrumentable interface {
	instrument(reg *metrics.Registry) (publish func())
}
