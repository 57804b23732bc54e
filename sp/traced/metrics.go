package traced

import (
	"repro/sp/metrics"
)

// serverMetrics is the server's own instrument set on the shared
// registry. Stream monitors publish the sp_* families into the same
// registry (sp.WithMetrics) when each stream's Report runs, so one
// scrape covers the service and the detection machinery underneath it.
type serverMetrics struct {
	streamsOK, streamsFailed *metrics.Counter
	events                   *metrics.Counter
	bytes                    *metrics.Counter
	racesObserved            *metrics.Counter
	acceptWaits              *metrics.Counter
	acceptWaitNs             *metrics.Histogram
	streamEvents             *metrics.Histogram
	streamNsPerEvent         *metrics.Histogram
	workersBusy              *metrics.Gauge
	workersBusyHW            *metrics.Gauge
}

// instrument resolves the server's instruments against reg and
// registers the fleet-state collect hook that keeps the report-derived
// gauges (active streams, unique races, peak parallelism, draining)
// current at every scrape or snapshot. The exposition names predate the
// registry — existing scrapes keep working unchanged.
func (s *Server) instrument(reg *metrics.Registry) {
	s.reg = reg
	s.mx = serverMetrics{
		streamsOK:        reg.Counter("sptraced_streams_total", "Streams accepted since start, by final state.", "state", "ok"),
		streamsFailed:    reg.Counter("sptraced_streams_total", "Streams accepted since start, by final state.", "state", "failed"),
		events:           reg.Counter("sptraced_events_total", "Trace events applied across all streams."),
		bytes:            reg.Counter("sptraced_bytes_total", "Trace bytes consumed across all streams."),
		racesObserved:    reg.Counter("sptraced_races_observed_total", "Race observations before deduplication."),
		acceptWaits:      reg.Counter("sptraced_accept_waits_total", "Accept-loop stalls waiting for a stream slot (MaxStreams backpressure)."),
		acceptWaitNs:     reg.Histogram("sptraced_accept_wait_ns", "Nanoseconds accept loops spent blocked on a stream slot."),
		streamEvents:     reg.Histogram("sptraced_stream_events", "Events per finished stream."),
		streamNsPerEvent: reg.Histogram("sptraced_stream_ns_per_event", "Whole-life nanoseconds per event of finished streams."),
		workersBusy:      reg.Gauge("sptraced_workers_busy", "Worker-pool occupancy: streams being ingested right now."),
		workersBusyHW:    reg.Gauge("sptraced_workers_busy_highwater", "Deepest the worker-pool occupancy has reached."),
	}
	s.rate = reg.Rate("sptraced_events_per_second", "Recent fleet-wide ingestion rate.")
	active := reg.Gauge("sptraced_streams_active", "Streams currently being ingested.")
	unique := reg.Gauge("sptraced_races_unique", "Deduplicated (site pair, kind) race entries.")
	peak := reg.Gauge("sptraced_peak_parallelism", "Maximum instantaneous logical parallelism of any stream.")
	draining := reg.Gauge("sptraced_draining", "1 while the server is draining.")
	reg.CollectOnce("sptraced_fleet", func() {
		unique.Set(float64(s.dedup.Unique()))
		s.mu.Lock()
		active.Set(float64(len(s.active)))
		p := s.peak
		for _, st := range s.active {
			if lp := st.peak.Load(); lp > p {
				p = lp
			}
		}
		peak.Set(float64(p))
		d := 0.0
		if s.draining {
			d = 1
		}
		draining.Set(d)
		s.mu.Unlock()
	})
}

// Registry returns the server's metrics registry: the backing store of
// /metrics, shared with every stream monitor the server creates.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Metrics returns a point-in-time snapshot of the server's registry.
func (s *Server) Metrics() metrics.Snapshot { return s.reg.Snapshot() }
