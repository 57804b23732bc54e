package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// stream is one recorded event trace with the outputs every replay of
// it must reproduce.
type stream struct {
	Name   string `json:"name"`
	File   string `json:"file"`
	Sig    string `json:"sig"` // trace.Signature of the reference report
	Events int64  `json:"events"`
	Races  int64  `json:"races"`
	data   []byte
}

// newStream pairs a trace with its reference report.
func newStream(name string, data []byte, ref sp.Report) (stream, error) {
	st, err := trace.Stat(bytes.NewReader(data))
	if err != nil {
		return stream{}, fmt.Errorf("%s: %w", name, err)
	}
	return stream{Name: name, data: data, Sig: trace.Signature(ref), Events: st.Events, Races: int64(len(ref.Races))}, nil
}

// scenario is one recorded workload shape and its size.
type scenario struct {
	name    string
	threads int
}

// record builds and records each scenario's serial replay through
// sp-order; the recording's report is the reference every replay must
// reproduce.
func (r *runner) record(specs []scenario) ([]stream, error) {
	var out []stream
	for i, s := range specs {
		sc, ok := workload.ScenarioByName(s.name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", s.name)
		}
		threads := s.threads
		if r.quick {
			threads = max(64, threads/32)
		}
		var buf bytes.Buffer
		id := r.spans.begin("workload.RecordTrace", "record", 0, int32(i))
		rep, err := workload.RecordTrace(sc.Build(threads, r.seed*1000+int64(i)), &buf)
		r.spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("recording %s: %w", s.name, err)
		}
		st, err := newStream(fmt.Sprintf("%s.%d", s.name, i), buf.Bytes(), rep)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// replayRacy is trace.ReplayBackend, the path `sptrace replay` runs,
// over race-dense traces: race emission and the race log dominate.
func (r *runner) replayRacy() error {
	return r.replay([]scenario{{"forkjoin", 16384}, {"readmostly", 16384}, {"lockheavy", 16384}}, false)
}

// replaySparse is replay-racy's twin over traces where 3% or fewer of
// the events race: SP queries and fork/join maintenance dominate, and a
// race-log change must leave it flat.
func (r *runner) replaySparse() error {
	return r.replay([]scenario{{"pipeline", 32768}, {"planted", 32768}, {"forkheavy", 32768}}, false)
}

// edges replays traces whose every cross-worker order comes only from
// Put/Get, isolating Monitor.Put/Get and the token-set pruning. The
// cost of a future DAG depends on its random shape, so four of them
// average out most of the variation between seeds.
func (r *runner) edges() error {
	return r.replay([]scenario{{"channel-pipeline", 128},
		{"future-dag", 192}, {"future-dag", 192}, {"future-dag", 192}, {"future-dag", 192}}, true)
}

// manifest tells the replay child what to measure.
type manifest struct {
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Quick    bool     `json:"quick"`
	Backends []string `json:"backends"`
	Streams  []stream `json:"streams"`
	Spans    string   `json:"spans"`
}

// childResult is the replay child's report to the parent: per replay
// (trace and backend), its latency and its peak RSS in each pass.
type childResult struct {
	LatencyMS map[string][]float64 `json:"latencyMs"`
	RSSMB     map[string][]float64 `json:"rssMb"`
	Events    map[string]int64     `json:"events"`
	Attempted int                  `json:"attempted"`
	Failures  []string             `json:"failures"`
}

// replay records the scenarios at set-up, then measures their replay
// in a child process of its own, whose heap holds nothing else.
func (r *runner) replay(specs []scenario, raceFree bool) error {
	var streams []stream
	if err := r.setup(3, func(int) error {
		var err error
		streams, err = r.record(specs)
		return err
	}); err != nil {
		return err
	}
	for i := range streams {
		s := &streams[i]
		if raceFree {
			r.check(s.Races == 0, "%s: recording reports %d races, want none", s.Name, s.Races)
		}
		s.File = filepath.Join(r.work, s.Name+".sptr")
		if err := os.WriteFile(s.File, s.data, 0o644); err != nil {
			return err
		}
		info("stream."+s.Name+".events", float64(s.Events), "count", 1)
		info("stream."+s.Name+".races", float64(s.Races), "count", 1)
	}
	if r.flip {
		streams[0].Sig += "flipped\n"
	}
	phase := func(dur time.Duration) (map[string]measured, error) {
		man := manifest{Seconds: dur.Seconds(), Traced: r.spans.on.Load(), Quick: r.quick,
			Backends: replayBackends, Streams: streams, Spans: filepath.Join(r.work, "child-spans.json")}
		path := filepath.Join(r.work, "manifest.json")
		data, err := json.Marshal(man)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		id := r.spans.begin("replay child", "bench", 0, 0)
		p, err := r.run(r.work, nil, r.self, "-child", path, "-root", r.root)
		r.spans.end(id)
		if err == nil && p.exitCode != 0 {
			err = fmt.Errorf("exit %d: %s", p.exitCode, strings.TrimSpace(string(p.stderr)))
		}
		if err != nil {
			return nil, fmt.Errorf("replay child: %w", err)
		}
		var res childResult
		if err := json.Unmarshal(p.stdout, &res); err != nil {
			return nil, fmt.Errorf("replay child output: %w", err)
		}
		r.mu.Lock()
		r.attempted += res.Attempted
		r.failed += len(res.Failures)
		r.mu.Unlock()
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "bench: check failed:", f)
		}
		if man.Traced {
			var spans []span
			if data, err := os.ReadFile(man.Spans); err == nil && json.Unmarshal(data, &spans) == nil {
				r.spans.merge(spans, id)
			}
		}
		m := r.requestMetrics(res.LatencyMS, res.Events)
		m["peak_rss_mb"] = r.peakOfMedians(res.RSSMB)
		return m, nil
	}
	if err := r.measure(phase); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	return r.layers(streams)
}

// replayChild is the measured process of the replay workloads: one
// untimed pass, then passes until the deadline (at least two), each
// replaying every stream through every backend and checking the
// signature. It prints a childResult as JSON.
func replayChild(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return err
	}
	for i := range man.Streams {
		if man.Streams[i].data, err = os.ReadFile(man.Streams[i].File); err != nil {
			return err
		}
	}
	log := newSpanLog(0)
	if man.Traced {
		log = newSpanLog(1 << 16)
		log.on.Store(true)
	}
	res := childResult{LatencyMS: map[string][]float64{}, RSSMB: map[string][]float64{}, Events: map[string]int64{}}
	pass := func(n int, measured bool) {
		passID := log.begin("pass", "bench", 0, int32(n))
		for _, s := range man.Streams {
			for _, b := range man.Backends {
				key := s.Name + " " + b
				// Every replay starts from an empty heap and a reset
				// peak RSS, as a fresh `sptrace replay` process would.
				resetPeakRSS()
				id := log.begin("trace.ReplayBackend "+key, "replay", passID, int32(n))
				t0 := time.Now()
				rep, err := trace.ReplayBackend(s.data, b)
				d := time.Since(t0)
				log.end(id)
				res.Attempted++
				switch {
				case err != nil:
					res.Failures = append(res.Failures, fmt.Sprintf("%s on %s: %v", s.Name, b, err))
				case trace.Signature(rep) != s.Sig:
					res.Failures = append(res.Failures, fmt.Sprintf("%s on %s: signature differs from the recording's", s.Name, b))
				}
				if measured {
					res.LatencyMS[key] = append(res.LatencyMS[key], float64(d.Nanoseconds())/1e6)
					res.RSSMB[key] = append(res.RSSMB[key], peakRSSMB("self"))
					res.Events[key] = s.Events
				}
			}
		}
		log.end(passID)
	}
	pass(0, false)
	minPasses := 2
	if man.Quick {
		minPasses = 1
	}
	deadline := time.Now().Add(time.Duration(man.Seconds * float64(time.Second)))
	for n := 1; n <= minPasses || time.Now().Before(deadline); n++ {
		pass(n, true)
	}
	if man.Traced {
		out, err := json.Marshal(log.spans())
		if err != nil {
			return err
		}
		if err := os.WriteFile(man.Spans, out, 0o644); err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
