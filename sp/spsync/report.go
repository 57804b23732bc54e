package spsync

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"repro/sp"
)

// RaceJSON is one row of the shutdown report: every detected race with
// one access kind and site pair (sp.RaceKey). The sites are
// "file.go:line" strings from the original, uninstrumented source, or
// "x<addr>" for an access announced without one. Count is the number
// of races the row stands for; Addr (a dense location) and the thread
// IDs First and Second are those of the first of them.
type RaceJSON struct {
	Addr       uint64 `json:"addr"`
	Kind       string `json:"kind"`
	First      int64  `json:"first"`
	Second     int64  `json:"second"`
	FirstSite  string `json:"firstSite,omitempty"`
	SecondSite string `json:"secondSite,omitempty"`
	Count      int64  `json:"count"`
}

// ReportJSON is the machine-readable outcome an instrumented binary
// writes at shutdown (SPSYNC_REPORT). The differential harness parses
// it to obtain the sp verdict: Racy == len(Races) > 0. Races holds one
// row per site pair, in the order the monitor's report first lists
// each; Locations lists every raced location.
type ReportJSON struct {
	Backend   string     `json:"backend"`
	LockAware bool       `json:"lockAware"`
	Serialize bool       `json:"serialize"`
	Racy      bool       `json:"racy"`
	Races     []RaceJSON `json:"races"`
	Locations []uint64   `json:"locations"`
	Threads   int64      `json:"threads"`
	Forks     int64      `json:"forks"`
	Joins     int64      `json:"joins"`
	Puts      int64      `json:"puts"`
	Gets      int64      `json:"gets"`
	Accesses  int64      `json:"accesses"`
	// Orphans counts events dropped because they came from goroutines
	// the instrumentation did not spawn; Unjoined counts children left
	// logically parallel at join points; Unjoinable counts sync-object
	// edges (channel operations, WaitGroup.Done) lost because one
	// endpoint was unmonitored. All zero on fully covered programs —
	// non-zero values flag coverage gaps honestly.
	Orphans    int64  `json:"orphans"`
	Unjoined   int64  `json:"unjoined"`
	Unjoinable int64  `json:"unjoinable"`
	Trace      string `json:"trace,omitempty"`
	TraceErr   string `json:"traceErr,omitempty"`
}

// buildReport converts the monitor's report into the JSON form.
func (e *engine) buildReport(rep sp.Report, traceErr error) ReportJSON {
	out := ReportJSON{
		Backend:    rep.Backend,
		LockAware:  e.lockAware(),
		Serialize:  e.serialize,
		Racy:       len(rep.Races) > 0,
		Locations:  rep.Locations,
		Threads:    rep.Threads,
		Forks:      rep.Forks,
		Joins:      rep.Joins,
		Puts:       rep.Puts,
		Gets:       rep.Gets,
		Accesses:   rep.Accesses,
		Orphans:    e.orphans.Load(),
		Unjoined:   e.unjoined.Load(),
		Unjoinable: e.unjoinable.Load(),
		Trace:      e.tracePath,
	}
	if traceErr != nil {
		out.TraceErr = traceErr.Error()
	}
	for _, row := range sp.Tally(rep.Races) {
		out.Races = append(out.Races, RaceJSON{
			Addr:       row.Race.Addr,
			Kind:       row.Key.Kind.String(),
			First:      int64(row.Race.First),
			Second:     int64(row.Race.Second),
			FirstSite:  row.Key.First,
			SecondSite: row.Key.Second,
			Count:      row.Count,
		})
	}
	return out
}

// lockAware reports whether the engine's monitor runs the ALL-SETS
// protocol. The monitor does not expose the option back, so the engine
// records it at construction time.
func (e *engine) lockAware() bool { return e.lockAwareFlag }

// emitReport writes the JSON report to the configured path, or a
// one-line summary to stderr when no path is set: races= counts the
// races detected, rows= the report rows they group into.
func (e *engine) emitReport(rep sp.Report, traceErr error) {
	out := e.buildReport(rep, traceErr)
	if e.reportPath != "" {
		if err := writeReport(e.reportPath, out); err != nil {
			fmt.Fprintln(os.Stderr, "spsync: report:", err)
		}
		return
	}
	fmt.Fprintf(os.Stderr,
		"spsync: backend=%s races=%d rows=%d locations=%d threads=%d forks=%d joins=%d puts=%d gets=%d accesses=%d orphans=%d unjoined=%d unjoinable=%d\n",
		out.Backend, len(rep.Races), len(out.Races), len(out.Locations), out.Threads, out.Forks, out.Joins,
		out.Puts, out.Gets, out.Accesses, out.Orphans, out.Unjoined, out.Unjoinable)
}

// writeReport writes out to path as one line of compact JSON, encoding
// straight into a buffered file.
func writeReport(path string, out ReportJSON) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
