package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/sp/traced"
)

// TestEndToEnd drives the full acceptance scenario in-process: a
// server started via run, two concurrent clients streaming the same
// planted-race trace (every deduplicated race must be reported once
// with twice the single-stream count), a truncated third stream the
// server must survive, and a SIGTERM drain that flushes the final
// report to stdout.
func TestEndToEnd(t *testing.T) {
	fleet, err := workload.PlantedFleet(2, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	single := map[traced.RaceKey]int64{}
	for _, r := range fleet[0].Report.Races {
		single[traced.KeyOf(r)]++
	}
	if len(single) == 0 {
		t.Fatal("planted workload produced no races")
	}

	var stdout, stderr bytes.Buffer
	sigs := make(chan os.Signal, 1)
	type addrs struct{ ingest, http string }
	readyCh := make(chan addrs, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(
			[]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-drain-timeout", "10s"},
			&stdout, &stderr, sigs,
			func(ingest, httpAddr string) { readyCh <- addrs{ingest, httpAddr} },
		)
	}()
	var a addrs
	select {
	case a = <-readyCh:
	case err := <-runErr:
		t.Fatalf("run exited early: %v\n%s", err, stderr.String())
	}

	// Two concurrent clients observing the same planted races.
	var wg sync.WaitGroup
	for i, c := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ack, err := traced.Send(a.ingest, c.Name, bytes.NewReader(c.Data))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if ack.State != "ok" || ack.Races != int64(len(fleet[0].Report.Races)) {
				t.Errorf("client %d: ack %+v, want ok with %d races", i, ack, len(fleet[0].Report.Races))
			}
		}()
	}
	wg.Wait()

	// The live report deduplicates across the two streams.
	rep := getReport(t, a.http)
	if rep.Races.Unique != len(single) {
		t.Fatalf("unique %d, want %d", rep.Races.Unique, len(single))
	}
	for _, e := range rep.Entries {
		k := traced.RaceKey{First: e.First, Second: e.Second}
		var n int64
		for key, c := range single {
			if key.First == e.First && key.Second == e.Second && key.Kind.String() == e.Kind {
				n = c
			}
		}
		if e.Count != 2*n || e.Streams != 2 {
			t.Errorf("entry %v: count %d streams %d, want count %d from 2 streams", k, e.Count, e.Streams, 2*n)
		}
	}

	// A truncated third stream fails alone; the server keeps serving.
	ack, err := traced.Send(a.ingest, "truncated", strings.NewReader("SPTR\x01\x01"))
	if err != nil {
		t.Fatalf("truncated send: %v", err)
	}
	if ack.State != "failed" {
		t.Errorf("truncated stream: ack %+v, want failed", ack)
	}
	resp, err := http.Get("http://" + a.http + "/healthz")
	if err != nil {
		t.Fatalf("healthz after truncated stream: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200 (server must survive a truncated stream)", resp.StatusCode)
	}

	// SIGTERM drains and flushes the final report to stdout.
	sigs <- syscall.SIGTERM
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not exit after SIGTERM\n%s", stderr.String())
	}
	var final traced.FleetReport
	if err := json.Unmarshal(stdout.Bytes(), &final); err != nil {
		t.Fatalf("final report on stdout: %v\n%q", err, stdout.String())
	}
	if !final.Draining || final.Streams.Total != 3 || final.Streams.Completed != 2 || final.Streams.Failed != 1 {
		t.Errorf("final report streams = %+v draining=%v, want 2 ok / 1 failed, draining", final.Streams, final.Draining)
	}
	if final.Races.Unique != len(single) {
		t.Errorf("final report unique %d, want %d", final.Races.Unique, len(single))
	}
}

// TestBatchMode runs sptraced as a listener-less batch aggregator.
func TestBatchMode(t *testing.T) {
	fleet, err := workload.FleetTraces(2, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var files []string
	var wantObserved int64
	for i, c := range fleet {
		path := fmt.Sprintf("%s/trace%d.sptr", dir, i)
		if err := os.WriteFile(path, c.Data, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
		wantObserved += int64(len(c.Report.Races))
	}
	var stdout, stderr bytes.Buffer
	args := append([]string{"-listen", "", "-http", ""}, files...)
	if err := run(args, &stdout, &stderr, nil, nil); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var rep traced.FleetReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report: %v\n%q", err, stdout.String())
	}
	if rep.Streams.Completed != 2 || rep.Races.Observed != wantObserved {
		t.Errorf("batch report %+v / %+v, want 2 streams with %d observations", rep.Streams, rep.Races, wantObserved)
	}
}

// TestNegativeLimitFlags checks that a negative -max-events, -max-bytes
// or -read-timeout makes run fail before it listens, instead of
// starting a server that fails every stream.
func TestNegativeLimitFlags(t *testing.T) {
	for _, flag := range []string{"-max-events=-1", "-max-bytes=-1", "-read-timeout=-1s"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-listen", "", "-http", "", flag}, &stdout, &stderr, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: run returned %v, want a negative-limit error", flag, err)
		}
	}
}

func getReport(t *testing.T, httpAddr string) traced.FleetReport {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep traced.FleetReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}
