// Command sptrace records, inspects, replays, and differentially
// checks binary sp event traces (package repro/sp/trace).
//
// Usage:
//
//	sptrace record  -workload name [-n threads] [-seed s] [-backend b] [-lock-aware] -o file
//	sptrace replay  -backend name|all|? [-lock-aware] [-v] file
//	sptrace send    -addr host:port|unix:path [-name s] file ...
//	sptrace stat    file
//	sptrace diff    fileA fileB
//	sptrace selftest [-n threads] [-seed s]
//
// record generates a deterministic workload (-workload '?' lists the
// shapes), monitors its serial replay with the recording option, and
// writes the trace. replay feeds a trace back through one registered
// backend — or, with -backend all, through every backend, asserting
// that all reports are identical (differential replay); -backend '?'
// lists the backends with their capabilities and bounds. send streams
// trace files to a running sptraced server and prints each ack. stat
// summarizes a trace without replaying it. diff compares two traces
// event by event. selftest records one trace per workload shape and
// differentially replays each across every registered backend; it
// exits non-zero on any divergence (CI runs this).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"time"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
	"repro/sp/traced"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "send":
		err = cmdSend(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "selftest":
		err = cmdSelftest(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sptrace: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  sptrace record  -workload name [-n threads] [-seed s] [-backend b] [-lock-aware] -o file
  sptrace replay  -backend name|all|? [-lock-aware] [-v] file
  sptrace send    -addr host:port|unix:path [-name s] file ...
  sptrace stat    file
  sptrace diff    fileA fileB
  sptrace selftest [-n threads] [-seed s]
`)
}

// listWorkloads prints the scenario table.
func listWorkloads() {
	fmt.Println("workload shapes (deterministic for a given -n and -seed):")
	for _, sc := range workload.Scenarios() {
		fmt.Printf("  %-12s %s\n", sc.Name, sc.Description)
	}
}

// listBackends prints the backend registry with capabilities and bounds.
func listBackends() {
	fmt.Println("registered SP-maintenance backends (repro/sp):")
	fmt.Printf("  %-18s %-10s %-9s %-12s %-28s %s\n",
		"name", "queries", "events", "update", "query cost", "description")
	for _, info := range sp.Backends() {
		queries := "current"
		if info.FullQueries {
			queries = "any-pair"
		}
		order := "serial"
		if info.AnyOrder {
			order = "any-order"
		}
		fmt.Printf("  %-18s %-10s %-9s %-12s %-28s %s\n",
			info.Name, queries, order, info.UpdateBound, info.QueryBound, info.Description)
	}
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "forkjoin", "workload shape ('?' lists)")
	n := fs.Int("n", 128, "approximate thread count")
	seed := fs.Int64("seed", 1, "random seed")
	backend := fs.String("backend", "sp-order", "backend monitoring the recording run")
	lockAware := fs.Bool("lock-aware", false, "record under the ALL-SETS lock-aware protocol")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *name == "?" || *name == "list" {
		listWorkloads()
		return nil
	}
	sc, ok := workload.ScenarioByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (available: %v)", *name, workload.ScenarioNames())
	}
	if *out == "" {
		return fmt.Errorf("record requires -o <file>")
	}
	if _, ok := sp.Lookup(*backend); !ok {
		return fmt.Errorf("unknown backend %q (available: %v)", *backend, sp.BackendNames())
	}
	tr := sc.Build(*n, *seed)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	opts := []sp.Option{sp.WithBackend(*backend)}
	if *lockAware {
		opts = append(opts, sp.WithLockAwareness(true))
	}
	rep, err := workload.RecordTrace(tr, f, opts...)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %s: workload %s, %d threads, %d accesses, %d races on %d locations (%d bytes)\n",
		*out, sc.Name, rep.Threads, rep.Accesses, len(rep.Races), len(rep.Locations), info.Size())
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	backend := fs.String("backend", "sp-order", "backend name, 'all' for differential replay, or '?' to list")
	lockAware := fs.Bool("lock-aware", false, "replay under the ALL-SETS lock-aware protocol")
	verbose := fs.Bool("v", false, "list the detected races")
	fs.Parse(args)
	if *backend == "?" || *backend == "list" {
		listBackends()
		return nil
	}
	if _, ok := sp.Lookup(*backend); !ok && *backend != "all" {
		return fmt.Errorf("unknown backend %q (available: %v, 'all', or '?' to list)", *backend, sp.BackendNames())
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay requires exactly one trace file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var opts []sp.Option
	if *lockAware {
		opts = append(opts, sp.WithLockAwareness(true))
	}
	if *backend == "all" {
		return differentialReplay(data, opts)
	}
	start := time.Now()
	rep, err := trace.ReplayBackend(data, *backend, opts...)
	if err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("replayed %s through %s in %v\n", fs.Arg(0), *backend, el.Round(time.Microsecond))
	fmt.Printf("threads=%d forks=%d joins=%d puts=%d gets=%d accesses=%d queries=%d\n",
		rep.Threads, rep.Forks, rep.Joins, rep.Puts, rep.Gets, rep.Accesses, rep.Queries)
	fmt.Printf("races=%d on locations %v\n", len(rep.Races), rep.Locations)
	if *verbose {
		for i, r := range rep.Races {
			if i == 20 {
				fmt.Printf("  … %d more\n", len(rep.Races)-i)
				break
			}
			fmt.Println(" ", r)
		}
	}
	return nil
}

// differentialReplay is `replay -backend all`: every registered
// backend sees the same trace and must produce an identical report
// (compared by signature on the reports the table loop already
// produced — each backend replays exactly once).
func differentialReplay(data []byte, opts []sp.Option) error {
	fmt.Printf("%-20s %10s %10s %10s %10s\n", "backend", "races", "locations", "threads", "time")
	names := sp.BackendNames()
	var refName, refSig string
	for _, name := range names {
		start := time.Now()
		rep, err := trace.ReplayBackend(data, name, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %10d %10d %10d %10v\n",
			name, len(rep.Races), len(rep.Locations), rep.Threads,
			time.Since(start).Round(time.Microsecond))
		sig := trace.Signature(rep)
		if refName == "" {
			refName, refSig = name, sig
		} else if sig != refSig {
			return fmt.Errorf("backend %s diverges from %s:\n--- %s ---\n%s--- %s ---\n%s",
				name, refName, refName, refSig, name, sig)
		}
	}
	fmt.Printf("all %d backends produced identical reports\n", len(names))
	return nil
}

// cmdSend streams recorded trace files to a running sptraced server —
// the client half of the ingest protocol (repro/sp/traced).
func cmdSend(args []string) error {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "sptraced ingest address (host:port or unix:path)")
	name := fs.String("name", "", "stream name (default: the file path)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("send requires at least one trace file")
	}
	failed := 0
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		stream := *name
		if stream == "" {
			stream = path
		}
		sum, err := traced.Send(*addr, stream, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("sent %s: stream %d %s: %d events, %d races, peak parallelism %d\n",
			path, sum.ID, sum.State, sum.Events, sum.Races, sum.PeakParallel)
		if sum.State != "ok" {
			fmt.Printf("  server error: %s\n", sum.Error)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d stream(s) failed", failed)
	}
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stat requires exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := trace.Stat(f)
	if err != nil {
		return err
	}
	fmt.Println(st)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff requires exactly two trace files")
	}
	open := func(path string) (*trace.Reader, *os.File, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		r, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return r, f, nil
	}
	ra, fa, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer fa.Close()
	rb, fb, err := open(fs.Arg(1))
	if err != nil {
		return err
	}
	defer fb.Close()
	for i := int64(0); ; i++ {
		eva, erra := ra.Next()
		evb, errb := rb.Next()
		switch {
		case erra == io.EOF && errb == io.EOF:
			fmt.Printf("traces identical: %d events\n", i)
			return nil
		case erra == io.EOF:
			return fmt.Errorf("%s ends at event %d; %s continues with %v", fs.Arg(0), i, fs.Arg(1), evb)
		case errb == io.EOF:
			return fmt.Errorf("%s ends at event %d; %s continues with %v", fs.Arg(1), i, fs.Arg(0), eva)
		case erra != nil:
			return fmt.Errorf("%s: event %d: %w", fs.Arg(0), i, erra)
		case errb != nil:
			return fmt.Errorf("%s: event %d: %w", fs.Arg(1), i, errb)
		case !reflect.DeepEqual(eva, evb): // Event holds a token slice, so == does not apply
			return fmt.Errorf("traces diverge at event %d:\n  %s: %v\n  %s: %v",
				i, fs.Arg(0), eva, fs.Arg(1), evb)
		}
	}
}

// cmdSelftest is the CI entry point: one trace per workload shape,
// differentially replayed across every registered backend, and each
// replayed report compared against the live recording run.
func cmdSelftest(args []string) error {
	fs := flag.NewFlagSet("selftest", flag.ExitOnError)
	n := fs.Int("n", 64, "approximate thread count per workload")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	backends := sp.BackendNames()
	failures := 0
	for _, sc := range workload.Scenarios() {
		var buf bytes.Buffer
		liveRep, err := workload.RecordTrace(sc.Build(*n, *seed), &buf)
		if err != nil {
			return fmt.Errorf("%s: recording: %w", sc.Name, err)
		}
		liveSig := trace.Signature(liveRep)
		reports, err := trace.Differential(buf.Bytes(), backends)
		if err != nil {
			fmt.Printf("FAIL %-12s %v\n", sc.Name, err)
			failures++
			continue
		}
		diverged := false
		keys := make([]string, 0, len(reports))
		for k := range reports {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, name := range keys {
			if trace.Signature(reports[name]) != liveSig {
				fmt.Printf("FAIL %-12s %s diverges from the live run\n", sc.Name, name)
				diverged = true
			}
		}
		if diverged {
			failures++
			continue
		}
		fmt.Printf("ok   %-12s %6d events, %3d races, %d backends agree with the live run\n",
			sc.Name, liveRep.Accesses+liveRep.Forks+liveRep.Joins, len(liveRep.Races), len(backends))
	}
	if failures > 0 {
		return fmt.Errorf("%d workload(s) diverged", failures)
	}
	return nil
}
