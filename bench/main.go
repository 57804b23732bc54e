// Command bench is the repository's performance benchmark. It drives
// the system only through its public entry points: the instrumenter
// plus `go build` and the instrumented binaries, sp.Monitor and
// sp.Thread, trace.Reader, trace.Applier and trace.ReplayBackend, the
// sp/spsync runtime, and a cmd/sptraced subprocess over loopback. It
// prints every metric by name with its unit and sample count, and it
// checks the system's outputs as it runs.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-spans DIR] [-json FILE] [-quick]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// run.sh builds this module with its Go build cache inside the
// checkout and runs it; `cd bench && go run . [flags]` works as well.
// Without -workload every workload runs, each in its own child
// process. -trace 1 adds spans, the layer table and the per-layer
// passes. -json appends one JSON line per workload run to FILE, and
// -compare applies the BENCHMARK.json bounds to two such files. The
// last line of standard output is the run's result: correct,
// attempted, failed and metrics, the end-to-end set without tracing
// and the per-layer set with it. A run whose checks fail still prints
// every metric but exits 1. README.md describes the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	// run sets the workload up, measures it until the deadline in r, and
	// records its end-to-end metrics; under -trace 1 it also runs the
	// per-layer passes on the same inputs.
	run func(r *runner) error
}

var workloads = []benchWorkload{
	{"instrumented", (*runner).instrumented},
	{"replay-racy", (*runner).replayRacy},
	{"replay-sparse", (*runner).replaySparse},
	{"edges", (*runner).edges},
	{"ingest", (*runner).ingest},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the metric set every untraced run reports, in print
// order; BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"latency_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// replayBackends are the backends valid for live programs; the serial
// ones stay in spbench's paper tables.
var replayBackends = []string{"sp-order", "sp-hybrid", "depa"}

// perLayer is the metric set every traced run reports, in print order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"instrument.rewrite_ms", "ms"},
		{"instrument.announces", "count"},
		{"spsync.access_ns.p50", "ns"},
		{"spsync.access_ns.p99", "ns"},
		{"spsync.go_ns.p50", "ns"},
		{"spsync.chan_ns.p50", "ns"},
		{"spsync.lock_ns.p50", "ns"},
		{"spsync.wait_ns.p50", "ns"},
		{"monitor.access_ns.p50", "ns"},
		{"monitor.access_ns.p99", "ns"},
		{"monitor.put_ns.w16", "ns"},
		{"monitor.get_ns.w16", "ns"},
		{"monitor.put_ns.w256", "ns"},
		{"monitor.get_ns.w256", "ns"},
		{"stream.events", "count"},
		{"decode.ns_per_event", "ns"},
	}
	for _, b := range replayBackends {
		defs = append(defs,
			metricDef{"apply." + b + ".ns_per_event", "ns"},
			metricDef{"apply_nodetect." + b + ".ns_per_event", "ns"},
			metricDef{"op." + b + ".fork_ns", "ns"},
			metricDef{"op." + b + ".join_ns", "ns"},
			metricDef{"op." + b + ".access_ns", "ns"},
			metricDef{"monitor.report_ms." + b, "ms"},
			metricDef{"monitor.retained_mb." + b, "MB"})
	}
	return append(defs,
		metricDef{"apply_metrics.sp-order.ns_per_event", "ns"},
		metricDef{"server.ns_per_event", "ns"},
		metricDef{"client.send_ms.p50", "ms"},
		metricDef{"client.ack_ms.p50", "ms"})
}

// metricVal is one metric as the result line carries it.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// record is one line of a -json file: a result tagged with its run.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
	// Samples holds the raw timings behind the metrics, by series.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, each in its own child process)")
		seed    = flag.Int64("seed", 1, "seed for every input generator")
		seconds = flag.Float64("seconds", 10, "length of the measured phase, in seconds")
		trace   = flag.Int("trace", 0, "1 adds spans, the layer table and the per-layer passes")
		spans   = flag.String("spans", "", "directory for the span files of -trace 1 (default bench/out/spans)")
		jsonOut = flag.String("json", "", "append one JSON line per workload run to this file")
		quick   = flag.Bool("quick", false, "small inputs and one set-up repetition, for the smoke test")
		flip    = flag.Bool("flip", false, "corrupt one expected output per workload, so that its checks must fail")
		compare = flag.Bool("compare", false, "compare two -json files (positional A B) against the BENCHMARK.json bounds")
		rootDir = flag.String("root", "", "repository checkout (default: found from the working directory)")
		child   = flag.String("child", "", "internal: run a measured child phase from the given manifest")
		spawnTo = flag.String("spawn", "", "internal: run the command after -- and write its exit, wall time and peak RSS to this file")
	)
	flag.Parse()
	if *spawnTo != "" {
		if err := spawn(*spawnTo, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	root := *rootDir
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			fatal(err)
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		worse, err := runCompare(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *child != "" {
		if err := replayChild(*child); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *spans == "" {
		*spans = filepath.Join(root, "bench", "out", "spans")
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *spans, *jsonOut, *quick, *flip, root))
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	r, err := newRunner(root, *seed, *seconds, *trace == 1, *quick, *flip)
	if err != nil {
		fatal(err)
	}
	res := r.execute(w, *spans)
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, record{w.name, *seed, *trace, res, r.samples}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findRoot locates the repository checkout: the working directory or
// a parent of it that holds bench/go.mod.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("cannot find the repository root (no bench/go.mod here or one level up); pass -root")
}

// runAll runs every workload in its own child process, one after the
// other, so peak RSS and GC state belong to one workload each, and
// prints a summary. It returns the exit code.
func runAll(seed int64, seconds float64, trace int, spans, jsonOut string, quick, flip bool, root string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	total := result{Correct: true, Metrics: map[string]metricVal{}}
	var rows []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-spans", spans, "-root", root}
		if jsonOut != "" {
			args = append(args, "-json", jsonOut)
		}
		if quick {
			args = append(args, "-quick")
		}
		if flip {
			args = append(args, "-flip")
		}
		fmt.Printf("=== workload %s\n", w.name)
		var out strings.Builder
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(&out, os.Stdout)
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
		runErr := cmd.Run()
		var res result
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s printed no result (%v)\n", w.name, runErr)
			total.Correct = false
			total.Failed++
			total.Attempted++
			continue
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		for _, n := range sortedKeys(res.Metrics) {
			m := res.Metrics[n]
			total.Metrics[w.name+"/"+n] = m
			rows = append(rows, fmt.Sprintf("%-14s %-40s %14.4f %s", w.name, n, m.Value, m.Unit))
		}
	}
	fmt.Println("=== summary")
	for _, row := range rows {
		fmt.Println(row)
	}
	fmt.Printf("checks: attempted %d, failed %d\n", total.Attempted, total.Failed)
	line, _ := json.Marshal(total)
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
