package sp_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/metrics"
	"repro/sp/trace"
)

// metricsGoldenSize is the workload size of TestMetricsGolden, CI's
// first selftest size (sptrace selftest -n 96 -seed 1).
const (
	metricsGoldenN    = 96
	metricsGoldenSeed = 1
)

// TestMetricsGolden pins what an instrumented monitor's registry reads
// after Report. Every selftest workload's recorded trace is replayed on
// sp-order, sp-hybrid and depa, plain and lock-aware, each into a fresh
// registry, and the sha256 of the registry's sorted sample lines (the
// Prometheus exposition less its HELP and TYPE comments) must match
// testdata/metrics_golden.txt. Serial replays are deterministic, so any
// difference is a change in what some series counts. A change meant to
// alter a series replaces the file with the text this test logs on
// failure.
func TestMetricsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/metrics_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " = ")
		if !ok {
			t.Fatalf("testdata/metrics_golden.txt: malformed line %q", line)
		}
		want[key] = sum
	}
	var got strings.Builder
	got.WriteString("# sha256 of the sorted registry samples after Report (see TestMetricsGolden)\n")
	for _, sc := range workload.Scenarios() {
		var buf bytes.Buffer
		if _, err := workload.RecordTrace(sc.Build(metricsGoldenN, metricsGoldenSeed), &buf); err != nil {
			t.Fatalf("%s: recording: %v", sc.Name, err)
		}
		for _, backend := range []string{"sp-order", "sp-hybrid", "depa"} {
			for _, lockAware := range []bool{false, true} {
				key := fmt.Sprintf("%s -n %d -seed %d %s lockaware=%v",
					sc.Name, metricsGoldenN, metricsGoldenSeed, backend, lockAware)
				reg := metrics.NewRegistry()
				if _, err := trace.ReplayBackend(buf.Bytes(), backend,
					sp.WithMetrics(reg), sp.WithLockAwareness(lockAware)); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				samples := sortedSamples(t, reg)
				sum := fmt.Sprintf("%x", sha256.Sum256([]byte(samples)))
				fmt.Fprintf(&got, "%s = %s\n", key, sum)
				if want[key] != sum {
					t.Errorf("%s: registry sha256 %s, testdata/metrics_golden.txt has %q; its samples:\n%s",
						key, sum, want[key], samples)
				}
				delete(want, key)
			}
		}
	}
	for key := range want {
		t.Errorf("testdata/metrics_golden.txt pins %s, which no replay produces", key)
	}
	if t.Failed() {
		t.Logf("the replays' registry digests, as testdata/metrics_golden.txt would hold them:\n%s", got.String())
	}
}

// sortedSamples renders reg in the exposition format and returns its
// sample lines, sorted, one per line.
func sortedSamples(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(b.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsPublishedAtReport pins when an instrumented monitor's
// counters move. Replaying a trace on sp-order (serialized) and
// sp-hybrid (lock-free) moves no sp_* counter or gauge before Report,
// except the acquire and release events and the trace bytes, which
// nothing else counts. After Report the counters equal the Report's
// fields; a second Report adds nothing; and a second monitor replaying
// the same trace into the same registry doubles every counter.
func TestMetricsPublishedAtReport(t *testing.T) {
	live := map[string]bool{
		`sp_monitor_events_total[op acquire]`: true,
		`sp_monitor_events_total[op release]`: true,
		`sp_monitor_trace_bytes_total[]`:      true,
	}
	configs := []struct {
		name string
		opts []sp.Option
	}{
		{"sp-order", []sp.Option{sp.WithBackend("sp-order")}},
		{"sp-order traced", []sp.Option{sp.WithBackend("sp-order"), sp.WithTrace(io.Discard)}},
		{"sp-hybrid", []sp.Option{sp.WithBackend("sp-hybrid")}},
		{"sp-hybrid lock-aware", []sp.Option{sp.WithBackend("sp-hybrid"), sp.WithLockAwareness(true)}},
	}
	for _, sc := range workload.Scenarios() {
		var buf bytes.Buffer
		if _, err := workload.RecordTrace(sc.Build(64, 1), &buf); err != nil {
			t.Fatalf("%s: recording: %v", sc.Name, err)
		}
		events, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		acquires := 0
		for _, ev := range events {
			if ev.Op == trace.Acquire {
				acquires++
			}
		}
		for _, cfg := range configs {
			name := sc.Name + " on " + cfg.name
			reg := metrics.NewRegistry()
			replay := func() *sp.Monitor {
				m := sp.MustMonitor(append(cfg.opts, sp.WithMetrics(reg))...)
				before := seriesValues(reg)
				a := trace.NewApplier(m)
				for _, ev := range events {
					if err := a.Apply(ev); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				after := seriesValues(reg)
				for key, v := range after {
					if v != before[key] && !live[key] {
						t.Errorf("%s: %s moved from %v to %v before Report", name, key, before[key], v)
					}
				}
				if got := after["sp_monitor_events_total[op acquire]"] - before["sp_monitor_events_total[op acquire]"]; got != float64(acquires) {
					t.Errorf("%s: %v acquires counted as they happened, want %d", name, got, acquires)
				}
				return m
			}
			m := replay()
			rep := m.Report()
			once := seriesValues(reg)
			checkReportSeries(t, name, rep, once)
			// Report publishes only what was counted since the last one.
			m.Report()
			if again := seriesValues(reg); !maps.Equal(again, once) {
				t.Errorf("%s: a second Report moved the registry:\n%v\n%v", name, once, again)
			}
			replay().Report()
			for key, v := range seriesValues(reg) {
				want := once[key]
				if family, _, _ := strings.Cut(key, "["); strings.HasSuffix(family, "_total") {
					want *= 2 // a counter; the gauges are a ratio and a high-water mark
				}
				if v != want {
					t.Errorf("%s: %s reads %v after two monitors reported into one registry, want %v", name, key, v, want)
				}
			}
		}
	}
}

// seriesValues returns every counter and gauge series of reg, keyed by
// name and labels.
func seriesValues(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, f := range reg.Snapshot().Families {
		if f.Type == metrics.TypeHistogram {
			continue
		}
		for _, s := range f.Series {
			out[f.Name+fmt.Sprint(s.Labels)] = s.Value
		}
	}
	return out
}

// checkReportSeries checks that the monitor counters in series equal
// rep's fields. The replay asks no Relation, so every query counted is
// the detection protocol's.
func checkReportSeries(t *testing.T, name string, rep sp.Report, series map[string]float64) {
	t.Helper()
	sum := func(prefix string) (total float64) {
		for key, v := range series {
			if strings.HasPrefix(key, prefix+"[") {
				total += v
			}
		}
		return total
	}
	for _, c := range []struct {
		series string
		got    float64
		want   int64
	}{
		{"threads", series["sp_monitor_threads_total[]"], rep.Threads},
		{"forks", series["sp_monitor_events_total[op fork]"], rep.Forks},
		{"joins", series["sp_monitor_events_total[op join]"], rep.Joins},
		{"puts", series["sp_monitor_events_total[op put]"], rep.Puts},
		{"gets", series["sp_monitor_events_total[op get]"], rep.Gets},
		{"reads and writes", series["sp_monitor_events_total[op read]"] + series["sp_monitor_events_total[op write]"], rep.Accesses},
		{"accesses", sum("sp_monitor_access_total"), rep.Accesses},
		{"shard accesses", sum("sp_shadow_shard_accesses_total"), rep.Accesses},
		{"queries", series["sp_monitor_queries_total[]"], rep.Queries},
		{"race-log emits", sum("sp_racelog_shard_emits_total"), int64(len(rep.Races))},
	} {
		if c.got != float64(c.want) {
			t.Errorf("%s: registry %s read %v after Report, the Report %d", name, c.series, c.got, c.want)
		}
	}
	if begins := series["sp_monitor_events_total[op begin]"]; begins < 1 || begins > float64(rep.Threads) {
		t.Errorf("%s: %v threads began, of %d", name, begins, rep.Threads)
	}
}
