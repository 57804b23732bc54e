package traced

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// FleetReport is the aggregate state of the server: the /report JSON
// document and the return value of Shutdown.
type FleetReport struct {
	Now       time.Time `json:"now"`
	StartedAt time.Time `json:"startedAt"`
	UptimeSec float64   `json:"uptimeSec"`
	Backend   string    `json:"backend"`
	Draining  bool      `json:"draining"`

	Streams struct {
		Total     int64 `json:"total"`
		Active    int   `json:"active"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
	} `json:"streams"`

	Events struct {
		Total  int64   `json:"total"`
		PerSec float64 `json:"perSec"`
	} `json:"events"`

	Races struct {
		// Observed counts every race observation fleet-wide; Unique is
		// the number of deduplicated (site-pair, kind) entries.
		Observed int64 `json:"observed"`
		Unique   int   `json:"unique"`
	} `json:"races"`

	// PeakParallel is the maximum instantaneous logical parallelism any
	// stream has reached.
	PeakParallel int64 `json:"peakParallel"`

	// RacesBySite rolls observations up per site, most-observed first.
	RacesBySite []SiteCount `json:"racesBySite"`
	// Entries is the deduplicated race table in first-seen order. A
	// stream's races join it when the stream finishes.
	Entries []RaceEntry `json:"entries"`
	// Active and Recent list in-flight and recently finished streams,
	// Recent up to the last 64.
	Active []StreamSummary `json:"active"`
	Recent []StreamSummary `json:"recent"`
}

// Report snapshots the fleet state. It is safe to call at any time,
// including while streams are in flight — in-flight streams appear in
// Active with their live counters.
func (s *Server) Report() FleetReport {
	now := time.Now()
	var r FleetReport
	r.Now = now
	r.StartedAt = s.start
	r.UptimeSec = now.Sub(s.start).Seconds()
	r.Backend = s.cfg.Backend
	r.Events.Total = s.mx.events.Value()
	r.Events.PerSec = s.rate.ValueAt(now)
	r.Races.Observed = s.mx.racesObserved.Value()
	r.Races.Unique = s.dedup.Unique()
	r.RacesBySite = s.dedup.BySite()
	r.Entries = s.dedup.Snapshot()

	s.mu.Lock()
	r.Draining = s.draining
	r.Streams.Total = s.total
	r.Streams.Active = len(s.active)
	r.Streams.Completed = s.completed
	r.Streams.Failed = s.failed
	r.PeakParallel = s.peak
	for _, st := range s.active {
		sum := st.summary("active", nil)
		r.Active = append(r.Active, sum)
		if sum.PeakParallel > r.PeakParallel {
			r.PeakParallel = sum.PeakParallel
		}
	}
	r.Recent = append([]StreamSummary(nil), s.recent...)
	s.mu.Unlock()
	return r
}

// HTTPHandler returns the server's HTTP surface:
//
//   - /report  — the FleetReport as JSON
//   - /metrics — the full metrics registry in Prometheus text exposition
//     format: the server's own series plus the sp_* families recorded by
//     every stream monitor sharing the registry
//   - /healthz — 200 "ok" while serving, 503 "draining" during Shutdown
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/report", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Report())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}
