package sp

import (
	"fmt"
	"io"

	"repro/sp/metrics"
)

// WithMetrics attaches a metrics registry to the Monitor: every layer —
// the monitor's event dispatch, the shadow-memory shards, the sharded
// race log, and the backend (sp-hybrid's batched OM tier, depa's label
// walks) — records into shared registry instruments. Instruments are
// get-or-create by name, so many monitors may share one registry (the
// sptraced fleet does): their counts aggregate, and the counters
// survive any individual monitor's retirement. Without this option the
// instrumented hot paths pay exactly one predictable nil-check branch.
func WithMetrics(reg *metrics.Registry) Option { return func(c *config) { c.reg = reg } }

// monitorMetrics is the Monitor's instrument set, resolved once at
// construction so hot paths never look instruments up by name.
type monitorMetrics struct {
	reg *metrics.Registry

	evFork, evJoin, evBegin   *metrics.Counter
	evRead, evWrite           *metrics.Counter
	evAcquire, evRelease      *metrics.Counter
	evPut, evGet              *metrics.Counter
	accessFast, accessSerial  *metrics.Counter
	queries                   *metrics.Counter
	threads                   *metrics.Counter
	traceBytes                *metrics.Counter
	shardHits, raceShardEmits []*metrics.Counter
}

// newMonitorMetrics resolves the monitor-level instruments against reg
// and registers the derived shard-imbalance gauge. The imbalance hook
// closes over the registry only — never over a monitor — so registries
// shared across many short-lived monitors (one per ingested stream)
// hold no reference to retired ones.
func newMonitorMetrics(reg *metrics.Registry, shards int) *monitorMetrics {
	mx := &monitorMetrics{
		reg:          reg,
		evFork:       reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "fork"),
		evJoin:       reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "join"),
		evBegin:      reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "begin"),
		evRead:       reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "read"),
		evWrite:      reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "write"),
		evAcquire:    reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "acquire"),
		evRelease:    reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "release"),
		evPut:        reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "put"),
		evGet:        reg.Counter("sp_monitor_events_total", "monitor events applied, by opcode", "op", "get"),
		accessFast:   reg.Counter("sp_monitor_access_total", "memory accesses, by dispatch path", "path", "fast"),
		accessSerial: reg.Counter("sp_monitor_access_total", "memory accesses, by dispatch path", "path", "serial"),
		queries:      reg.Counter("sp_monitor_queries_total", "SP queries issued by the detection protocol"),
		threads:      reg.Counter("sp_monitor_threads_total", "threads created"),
		traceBytes:   reg.Counter("sp_monitor_trace_bytes_total", "bytes flushed to the trace writer"),
	}
	mx.shardHits = make([]*metrics.Counter, shards)
	mx.raceShardEmits = make([]*metrics.Counter, shards)
	for i := 0; i < shards; i++ {
		mx.shardHits[i] = reg.Counter("sp_shadow_shard_accesses_total",
			"accesses landing on each shadow-memory shard", "shard", fmt.Sprint(i))
		mx.raceShardEmits[i] = reg.Counter("sp_racelog_shard_emits_total",
			"races emitted into each race-log shard", "shard", fmt.Sprint(i))
	}
	imb := reg.Gauge("sp_shadow_shard_imbalance", "max/mean ratio of per-shard shadow access counts (1 = perfectly balanced)")
	reg.CollectOnce("sp_shadow_shard_imbalance", func() {
		imb.Set(imbalance(reg.CounterValues("sp_shadow_shard_accesses_total")))
	})
	return mx
}

// imbalance returns max/mean of the counts (0 when empty or all-zero).
func imbalance(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var max, total int64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return float64(max) / mean
}

// countAccess records one access on the given dispatch path into the
// opcode and shard counters. idx is the shadow shard the access hashed
// to; pass a negative idx when no shard was consulted.
func (mx *monitorMetrics) countAccess(fast, write bool, idx int) {
	if fast {
		mx.accessFast.Add(1)
	} else {
		mx.accessSerial.Add(1)
	}
	if write {
		mx.evWrite.Add(1)
	} else {
		mx.evRead.Add(1)
	}
	if idx >= 0 {
		mx.shardHits[idx].Add(1)
	}
}

// Metrics returns a point-in-time snapshot of the registry attached
// with WithMetrics (an empty snapshot without one). The snapshot is
// internally consistent per instrument — counters are monotone across
// successive snapshots and high-water gauges never decrease — and it
// covers every layer the registry instruments, including counts from
// other monitors sharing the registry.
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
// a metrics registry; the Monitor invokes it at construction when
// WithMetrics is set (sp-hybrid exposes its OM amortization, depa its
// label-depth and walk-length distributions).
type instrumentable interface {
	instrument(reg *metrics.Registry)
}
