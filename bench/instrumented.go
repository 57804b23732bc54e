package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/instrument"
	"repro/sp/spsync"
	"repro/sp/trace"
)

// programs are the instrumented workload's committed programs, in run
// order; bench/testdata/programs/<name>/main.go says why each is there.
var programs = []string{"mergesort", "fanin", "lockcount", "histogram_racy"}

// raceExitCode is the exit status of a -race binary that reported a race.
const raceExitCode = 66

// copyPrograms copies the committed programs into dst as one module,
// so the native, -race and instrumented builds all see the same tree.
func (r *runner) copyPrograms(dst string) error {
	src := filepath.Join(r.root, "bench", "testdata", "programs")
	for _, p := range programs {
		data, err := os.ReadFile(filepath.Join(src, p, "main.go"))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, p, "main.go"), data, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dst, "go.mod"), []byte("module benchprogs\n\ngo 1.24\n"), 0o644)
}

// rewrite instruments the program tree src into out, replacing any
// earlier output, and returns the number of injected announcements.
func (r *runner) rewrite(src, out string) (int, error) {
	if err := os.RemoveAll(out); err != nil {
		return 0, err
	}
	id := r.spans.begin("instrument.Instrument", "instrument", 0, 0)
	res, err := instrument.Instrument(instrument.Config{Dir: src, Out: out, RepoRoot: r.root})
	r.spans.end(id)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range res.Files {
		n += f.Reads + f.Writes
	}
	return n, nil
}

// progStats collects one program's samples across passes.
type progStats struct {
	inst, race    []time.Duration
	rss           []float64
	events, races []float64
	reportMB      []float64
	unjoined      int64
	expect        string // the program's spinstrument:expect verdict
}

// instrumented is the spinstrument user's run: the committed programs
// are rewritten, built and run under the default spsync configuration,
// next to native and -race builds of the same source.
func (r *runner) instrumented() error {
	src := filepath.Join(r.work, "src")
	if err := r.copyPrograms(src); err != nil {
		return err
	}
	stats := map[string]*progStats{}
	for _, p := range programs {
		v, err := instrument.ExpectedVerdict(filepath.Join(src, p))
		if err != nil {
			return err
		}
		stats[p] = &progStats{expect: v}
	}
	if r.flip {
		stats["histogram_racy"].expect = "clean"
	}
	nativeBin, raceBin := filepath.Join(r.work, "native"), filepath.Join(r.work, "race")
	if err := r.goBuild(src, "-o", nativeBin+"/", "./..."); err != nil {
		return err
	}
	if err := r.goBuild(src, "-race", "-o", raceBin+"/", "./..."); err != nil {
		return err
	}
	var announces int
	var instBin string
	// Each build writes a fresh shadow tree and fresh binaries, so the
	// programs' own packages compile and link every time, while the
	// standard library and the repro packages come from the cache.
	rewriteAndBuild := func(rep int) error {
		shadow := filepath.Join(r.work, fmt.Sprintf("shadow-%d", rep))
		n, err := r.rewrite(src, shadow)
		if err != nil {
			return err
		}
		announces = n
		instBin = filepath.Join(r.work, fmt.Sprintf("inst-%d", rep))
		id := r.spans.begin("go build", "build", 0, int32(rep))
		defer r.spans.end(id)
		return r.goBuild(shadow, "-o", instBin+"/", "./...")
	}
	// One untimed rewrite and build first fills the build cache with
	// the standard library and the repro packages.
	if err := rewriteAndBuild(0); err != nil {
		return err
	}
	if err := r.setup(3, func(rep int) error { return rewriteAndBuild(rep + 1) }); err != nil {
		return err
	}
	info("instrument.announces", float64(announces), "count", 1)

	raceRuns, minPasses := 5, 2
	if r.quick {
		raceRuns, minPasses = 2, 1
	}
	arg := strconv.FormatInt(r.seed, 10)
	phase := func(dur time.Duration) (map[string]measured, error) {
		for _, st := range stats {
			*st = progStats{expect: st.expect}
		}
		deadline := time.Now().Add(dur)
		for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
			passID := r.spans.begin("pass", "bench", 0, int32(pass))
			for _, p := range programs {
				r.runProgram(p, arg, stats[p], nativeBin, raceBin, instBin, raceRuns, passID, int32(pass))
			}
			r.spans.end(passID)
		}
		return r.instrumentedMetrics(stats)
	}
	if err := r.measure(phase); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	streams, err := r.recordPrograms(instBin, arg)
	if err != nil {
		return err
	}
	return r.layers(streams)
}

// runProgram runs one program natively (its stdout is the reference),
// raceRuns times under -race, and once instrumented, checking each.
func (r *runner) runProgram(p, arg string, st *progStats, nativeBin, raceBin, instBin string, raceRuns int, parent, req int32) {
	id := r.spans.begin(p+" native", "program", parent, req)
	nat, err := r.run(r.work, nil, filepath.Join(nativeBin, p), arg)
	r.spans.end(id)
	r.check(err == nil && nat.exitCode == 0, "%s: native run: exit %d %v\n%s", p, nat.exitCode, err, nat.stderr)
	wantRace := 0
	if st.expect == "racy" {
		wantRace = raceExitCode
	}
	for k := 0; k < raceRuns; k++ {
		id := r.spans.begin(p+" -race", "program", parent, req)
		rp, err := r.run(r.work, []string{"GORACE=atexit_sleep_ms=0"}, filepath.Join(raceBin, p), arg)
		r.spans.end(id)
		r.check(err == nil && rp.exitCode == wantRace, "%s: -race run exited %d, want %d (%v)", p, rp.exitCode, wantRace, err)
		if err == nil {
			st.race = append(st.race, rp.wall)
		}
	}
	repPath := filepath.Join(r.work, "report-"+p+".json")
	os.Remove(repPath)
	id = r.spans.begin(p+" instrumented", "program", parent, req)
	ip, err := r.run(r.work, []string{"SPSYNC_REPORT=" + repPath}, filepath.Join(instBin, p), arg)
	r.spans.end(id)
	rep, size, rerr := readReport(repPath)
	if !r.check(err == nil && ip.exitCode == 0 && rerr == nil,
		"%s: instrumented run: exit %d, %v, report %v\n%s", p, ip.exitCode, err, rerr, ip.stderr) {
		return
	}
	r.check(bytes.Equal(ip.stdout, nat.stdout) && rep.Racy == (st.expect == "racy") && rep.Orphans == 0,
		"%s: instrumented stdout equal to native %v, racy %v (expect %s), orphans %d",
		p, bytes.Equal(ip.stdout, nat.stdout), rep.Racy, st.expect, rep.Orphans)
	st.inst = append(st.inst, ip.wall)
	st.rss = append(st.rss, ip.maxRSSMB)
	st.events = append(st.events, float64(rep.Accesses+rep.Forks+rep.Joins+rep.Puts+rep.Gets))
	st.races = append(st.races, float64(len(rep.Races)))
	st.reportMB = append(st.reportMB, float64(size)/(1<<20))
	st.unjoined += rep.Unjoined
}

func readReport(path string) (*spsync.ReportJSON, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var rep spsync.ReportJSON
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, 0, fmt.Errorf("report %s: %w", path, err)
	}
	return &rep, len(data), nil
}

// instrumentedMetrics prints the per-program table behind the passes
// and derives the end-to-end metrics from them.
func (r *runner) instrumentedMetrics(stats map[string]*progStats) (map[string]measured, error) {
	lat, rss, events := map[string][]float64{}, map[string][]float64{}, map[string]int64{}
	var ratios []float64
	fmt.Printf("  %-15s %5s %10s %10s %8s %10s %10s %9s %9s %8s\n",
		"program", "runs", "inst ms", "-race ms", "vs race", "events", "ns/event", "races", "rss MB", "report MB")
	for _, p := range programs {
		st := stats[p]
		if len(st.inst) == 0 || len(st.race) == 0 {
			return nil, fmt.Errorf("%s: no successful instrumented or -race run", p)
		}
		lat[p], rss[p], events[p] = ms(st.inst), st.rss, int64(median(st.events))
		instMS, raceMS := median(lat[p]), median(ms(st.race))
		ratios = append(ratios, instMS/raceMS)
		r.samples["race "+p] = append(r.samples["race "+p], ms(st.race)...)
		fmt.Printf("  %-15s %5d %10.2f %10.2f %8.1f %10d %10.0f %9.0f %9.1f %8.2f\n",
			p, len(st.inst), instMS, raceMS, instMS/raceMS, events[p], instMS*1e6/float64(events[p]),
			median(st.races), median(st.rss), median(st.reportMB))
		info("spsync.unjoined."+p, float64(st.unjoined), "count", len(st.inst))
	}
	info("vs_race_x", geomean(ratios), "ratio", len(ratios))
	m := r.requestMetrics(lat, events)
	m["peak_rss_mb"] = r.peakOfMedians(rss)
	return m, nil
}

// recordPrograms runs each instrumented program once more with
// SPSYNC_TRACE set and returns the recorded event streams, so the
// per-layer passes replay the programs' own events.
func (r *runner) recordPrograms(instBin, arg string) ([]stream, error) {
	var out []stream
	for _, p := range programs {
		path := filepath.Join(r.work, p+".sptr")
		repPath := filepath.Join(r.work, "report-"+p+"-traced.json")
		ip, err := r.run(r.work, []string{"SPSYNC_TRACE=" + path, "SPSYNC_REPORT=" + repPath}, filepath.Join(instBin, p), arg)
		if err == nil && ip.exitCode != 0 {
			err = fmt.Errorf("exit %d: %s", ip.exitCode, strings.TrimSpace(string(ip.stderr)))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: recording run: %w", p, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		// A live recording is creation-respecting, not serial: its
		// reference is its own sp-order replay.
		rep, err := trace.ReplayBackend(data, "sp-order")
		if err != nil {
			return nil, fmt.Errorf("%s: replaying the recording: %w", p, err)
		}
		st, err := newStream(p, data, rep)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}
