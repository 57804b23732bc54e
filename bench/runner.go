package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	n     int
}

// runner carries one workload run: its configuration, the checks it
// has made, and the metrics it has measured.
type runner struct {
	root, work string // repository checkout; scratch directory of this run
	seed       int64
	seconds    float64
	traced     bool
	quick      bool
	flip       bool
	spans      *spanLog
	env        []string // environment of every child process
	self       string   // this benchmark's executable
	spawned    atomic.Int64

	mu                sync.Mutex
	attempted, failed int
	e2e, layer        map[string]measured
	samples           map[string][]float64 // raw timings, by series, for -json
}

func newRunner(root string, seed int64, seconds float64, traced, quick, flip bool) (*runner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &runner{
		root: root, seed: seed, seconds: seconds, traced: traced, quick: quick, flip: flip, self: self,
		env: append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU())),
		e2e: map[string]measured{}, layer: map[string]measured{}, samples: map[string][]float64{},
	}
	if traced {
		r.spans = newSpanLog(1 << 20)
	} else {
		r.spans = newSpanLog(0)
	}
	return r, nil
}

// check counts one attempted operation and reports whether it passed;
// failures are printed to standard error.
func (r *runner) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
	return ok
}

// setLayer records a per-layer metric.
func (r *runner) setLayer(name string, value float64, n int) {
	r.mu.Lock()
	r.layer[name] = measured{value, n}
	r.mu.Unlock()
}

// info prints a metric that is not part of the result line.
func info(name string, value float64, unit string, n int) {
	fmt.Printf("  info %-34s %14.4f %-8s n=%d\n", name, value, unit, n)
}

// setup times fn reps times (once under -quick) and records the median
// as setup_s. fn receives the repetition index.
func (r *runner) setup(reps int, fn func(rep int) error) error {
	if r.quick {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		id := r.spans.begin("setup", "bench", 0, int32(i))
		start := time.Now()
		err := fn(i)
		times = append(times, time.Since(start).Seconds())
		r.spans.end(id)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	r.e2e["setup_s"] = measured{median(times), len(times)}
	r.samples["setup_s"] = times
	return nil
}

// measure runs the workload's measured phase. Untraced, it runs once
// for the run length and its metrics are the result. Traced, it runs
// twice for half the length each, without and then with spans, prints
// the difference as the tracing overhead, and the per-layer passes
// that follow give the result.
func (r *runner) measure(phase func(dur time.Duration) (map[string]measured, error)) error {
	dur := time.Duration(r.seconds * float64(time.Second))
	if !r.traced {
		m, err := phase(dur)
		for k, v := range m {
			r.e2e[k] = v
		}
		return err
	}
	r.spans.on.Store(false)
	plain, err := phase(dur / 2)
	if err != nil {
		return err
	}
	r.spans.on.Store(true)
	traced, err := phase(dur / 2)
	if err != nil {
		return err
	}
	fmt.Println("tracing overhead (untraced half vs traced half of the measured phase):")
	for _, def := range endToEnd {
		a, ok1 := plain[def.name]
		b, ok2 := traced[def.name]
		if !ok1 || !ok2 {
			continue
		}
		fmt.Printf("  %-14s untraced %12.4f  traced %12.4f %-8s (%+.1f%%)\n",
			def.name, a.value, b.value, def.unit, 100*(b.value-a.value)/a.value)
	}
	return nil
}

// execute runs workload w and returns its result line, printing every
// metric of the result with its unit and sample count.
func (r *runner) execute(w *benchWorkload, spansDir string) result {
	fmt.Printf("workload %s: seed %d, %gs measured, trace %v, GOMAXPROCS %d, NumCPU %d, %s\n",
		w.name, r.seed, r.seconds, r.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	r.spans.on.Store(r.traced)
	scratch := filepath.Join(r.root, ".bench_build")
	err := os.MkdirAll(scratch, 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(scratch, "work-"+w.name+"-")
	}
	if err != nil {
		r.check(false, "scratch directory: %v", err)
	} else {
		r.work = work
		defer os.RemoveAll(work)
		if err := w.run(r); err != nil {
			r.check(false, "%s: %v", w.name, err)
		}
	}

	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer(), r.layer
		for _, def := range endToEnd {
			if v, ok := r.e2e[def.name]; ok {
				info(def.name, v.value, def.unit, v.n)
			}
		}
	}
	res := result{Metrics: map[string]metricVal{}}
	fmt.Println("metrics:")
	for _, def := range defs {
		v, ok := vals[def.name]
		if !r.check(ok && v.value > 0 && !math.IsInf(v.value, 0) && !math.IsNaN(v.value),
			"metric %s not measured (%v)", def.name, v.value) {
			continue
		}
		fmt.Printf("  %-38s %16.4f %-8s n=%d\n", def.name, v.value, def.unit, v.n)
		res.Metrics[def.name] = metricVal{v.value, def.unit}
	}
	if r.traced {
		printLayerTable(r.spans)
		path := filepath.Join(spansDir, w.name+".json")
		if err := writeChrome(path, r.spans.spans()); r.check(err == nil, "writing spans: %v", err) {
			fmt.Println("spans written to", path)
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	fmt.Printf("checks: attempted %d, failed %d (failed_frac %.4g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)))
	return res
}

// proc is the outcome of one child process.
type proc struct {
	wall     time.Duration
	stdout   []byte
	stderr   []byte
	exitCode int
	maxRSSMB float64
}

// run executes a child process in dir with extra environment and
// waits for it to end. It starts the child through the -spawn helper:
// on Linux a child's peak RSS counts the memory of the process that
// spawned it, and the helper is small where the benchmark is not.
func (r *runner) run(dir string, extraEnv []string, name string, args ...string) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), spawnTimeout+10*time.Second)
	defer cancel()
	resPath := filepath.Join(r.work, fmt.Sprintf("spawn-%d.json", r.spawned.Add(1)))
	cmd := exec.CommandContext(ctx, r.self, append([]string{"-root", r.root, "-spawn", resPath, "--", name}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(append([]string(nil), r.env...), extraEnv...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	p := proc{stdout: out.Bytes(), stderr: errb.Bytes()}
	if err != nil {
		return p, fmt.Errorf("%s: %w\n%s", name, err, errb.Bytes())
	}
	var res spawnResult
	data, err := os.ReadFile(resPath)
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err == nil && res.Err != "" {
		err = errors.New(res.Err)
	}
	p.wall, p.exitCode, p.maxRSSMB = time.Duration(res.WallNs), res.Exit, float64(res.MaxRSSKB)/1024
	return p, err
}

// spawnTimeout bounds every child process the benchmark runs.
const spawnTimeout = 150 * time.Second

// spawnResult is what the -spawn helper reports about its child.
type spawnResult struct {
	WallNs   int64  `json:"wallNs"`
	Exit     int    `json:"exit"`
	MaxRSSKB int64  `json:"maxRssKb"` // ru_maxrss, KiB on Linux
	Err      string `json:"err,omitempty"`
}

// spawn is the -spawn helper: it runs argv with the helper's standard
// streams, times it from start to exit, and writes a spawnResult to
// resultPath. The child dies with the helper.
func spawn(resultPath string, argv []string) error {
	if len(argv) == 0 {
		return errors.New("-spawn needs a command")
	}
	ctx, cancel := context.WithTimeout(context.Background(), spawnTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	res := spawnResult{WallNs: time.Since(start).Nanoseconds()}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		res.Err = err.Error()
	}
	if ps := cmd.ProcessState; ps != nil {
		res.Exit = ps.ExitCode()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.MaxRSSKB = ru.Maxrss
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath, data, 0o644)
}

// resetPeakRSS collects garbage, returns free memory to the OS, and
// resets this process's peak RSS (Linux clear_refs), so that
// peakRSSMB afterwards reports the peak of what runs in between.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads a process's peak RSS (VmHWM, "self" for this one)
// in MB; 0 when the platform has no /proc.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// requestMetrics derives the timing metrics of a workload whose
// requests are repeated runs of a fixed set of request kinds (a
// program, a trace on a backend, a fleet member's stream): lat holds
// each kind's latency samples (ms), events its monitored events per
// run. Each kind is summarized by its median, which a noisy host moves
// less than any total or any single sample: throughput is the events
// of one run of every kind over the sum of the kinds' medians, latency
// the geometric mean of the medians, and the tail their 90th
// percentile (the slowest kind's median when there are fewer than ten
// kinds).
func (r *runner) requestMetrics(lat map[string][]float64, events map[string]int64) map[string]measured {
	var meds []float64
	var wall, evs float64
	n := 0
	for _, k := range sortedKeys(lat) {
		m := median(lat[k])
		meds = append(meds, m)
		n += len(lat[k])
		wall += m / 1e3
		evs += float64(events[k])
		r.samples["lat "+k] = append(r.samples["lat "+k], lat[k]...)
	}
	info("pass_s", wall, "s", n/max(1, len(lat)))
	return map[string]measured{
		"events_per_s": {evs / wall, n},
		"latency_ms":   {geomean(meds), n},
		"tail_ms":      {percentile(meds, 90), n},
	}
}

// peakOfMedians is the peak RSS metric of request kinds: the largest
// kind's median peak RSS (MB).
func (r *runner) peakOfMedians(rss map[string][]float64) measured {
	var peak float64
	n := 0
	for _, k := range sortedKeys(rss) {
		peak = max(peak, median(rss[k]))
		n += len(rss[k])
		r.samples["rss "+k] = append(r.samples["rss "+k], rss[k]...)
	}
	return measured{peak, n}
}

// goBuild runs `go build` with args in dir.
func (r *runner) goBuild(dir string, args ...string) error {
	p, err := r.run(dir, nil, "go", append([]string{"build"}, args...)...)
	if err == nil && p.exitCode != 0 {
		err = fmt.Errorf("exit %d", p.exitCode)
	}
	if err != nil {
		return fmt.Errorf("go build %v in %s: %w\n%s", args, dir, err, p.stderr)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
