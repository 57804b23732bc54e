package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/sp/trace"
	"repro/sp/traced"
)

// Ingest workload shape, the same on every commit. The closed loop
// sends a fixed number of streams, the measured phase's closed share
// at closedRate: the server's memory grows with the streams it has
// seen, so a fixed count keeps peak RSS comparable when throughput
// changes. The open-loop rate is about a third of the closed-loop
// capacity on a 2-core host (README.md), so the server queues a
// little.
const (
	fleetSize     = 24
	fleetThreads  = 1024
	closedShare   = 0.6   // of the measured phase; the open loop gets the rest
	closedRate    = 160.0 // streams per second
	openRate      = 80.0  // streams per second
	ingestClients = 2
)

// fleetScenarios are the six non-edge workload shapes.
var fleetScenarios = []string{"forkjoin", "pipeline", "lockheavy", "readmostly", "planted", "forkheavy"}

// server is one cmd/sptraced subprocess.
type server struct {
	cmd          *exec.Cmd
	ingest, http string
	report       string        // path of the final report written on SIGTERM
	done         chan struct{} // closed when the server's stderr closes
	stopOnce     sync.Once
	waitErr      error
	stderrMu     sync.Mutex
	stderrTail   []string // the last lines, for error messages
}

// sptracedBin builds cmd/sptraced into the scratch directory once.
func (r *runner) sptracedBin() (string, error) {
	bin := filepath.Join(r.work, "sptraced")
	if _, err := os.Stat(bin); err == nil {
		return bin, nil
	}
	return bin, r.goBuild(filepath.Join(r.root, "bench"), "-o", bin, "repro/cmd/sptraced")
}

// startServer starts sptraced with its shipped defaults (sp-order,
// metrics on) and two workers on loopback ports it picks, and returns
// once /healthz answers 200.
func (r *runner) startServer(bin, report string) (*server, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-workers", "2", "-final-report", report)
	cmd.Env = r.env
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, report: report, done: make(chan struct{})}
	firstLine := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for first := true; sc.Scan(); first = false {
			if first {
				firstLine <- sc.Text()
			}
			s.stderrMu.Lock()
			s.stderrTail = append(s.stderrTail, sc.Text())
			if len(s.stderrTail) > 20 {
				s.stderrTail = s.stderrTail[1:]
			}
			s.stderrMu.Unlock()
		}
	}()
	var line string
	select {
	case line = <-firstLine:
	case <-s.done:
	case <-time.After(30 * time.Second):
	}
	s.ingest, s.http = field(line, "ingest "), field(line, "http ")
	if s.ingest == "" || s.http == "" {
		s.kill()
		return nil, fmt.Errorf("sptraced did not announce its addresses: %q", line)
	}
	client := http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := client.Get("http://" + s.http + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.kill()
	return nil, errors.New("sptraced /healthz never returned 200")
}

// field extracts the address following key in sptraced's start line.
func field(line, key string) string {
	_, rest, ok := strings.Cut(line, key)
	if !ok {
		return ""
	}
	addr, _, _ := strings.Cut(rest, ",")
	return strings.TrimSpace(addr)
}

// peakRSSMB reads the running server's peak RSS. (The exit status's
// ru_maxrss would also count the benchmark's own memory, which the
// server's process started out sharing.)
func (s *server) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid)) }

// stop sends SIGTERM, so the server drains and writes its final
// report, and waits for it to exit.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		s.finish()
	})
	return s.waitErr
}

// kill ends a server that is not needed any more, on error paths.
func (s *server) kill() {
	s.stopOnce.Do(func() {
		s.cmd.Process.Kill()
		s.finish()
	})
}

func (s *server) finish() {
	<-s.done
	s.waitErr = s.cmd.Wait()
	if s.waitErr != nil {
		s.stderrMu.Lock()
		s.waitErr = fmt.Errorf("sptraced: %w\n%s", s.waitErr, strings.Join(s.stderrTail, "\n"))
		s.stderrMu.Unlock()
	}
}

// scrape reads the unlabelled series of the server's /metrics.
func (s *server) scrape() (map[string]float64, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + s.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// eofReader notes when the client has handed over the last trace byte,
// which splits a traced.Send into its sending and its ack wait.
type eofReader struct {
	r  io.Reader
	at time.Time
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF && e.at.IsZero() {
		e.at = time.Now()
	}
	return n, err
}

// sent is one stream sent to the server.
type sent struct {
	sum       traced.StreamSummary
	start     time.Time
	eof, done time.Time
	err       error
}

// send streams s to the server with traced.Send.
func (r *runner) send(addr string, s stream, parent, req int32) sent {
	id := r.spans.begin("traced.Send "+s.Name, "traced", parent, req)
	src := &eofReader{r: bytes.NewReader(s.data)}
	out := sent{start: time.Now()}
	out.sum, out.err = traced.Send(addr, s.Name, src)
	out.done = time.Now()
	out.eof = src.at
	if out.eof.IsZero() {
		out.eof = out.done
	}
	r.spans.end(id)
	return out
}

// checkAck checks a stream's ack against the stream's recording.
func (r *runner) checkAck(s stream, x sent) bool {
	return r.check(x.err == nil && x.sum.State == "ok" && x.sum.Events == s.Events && x.sum.Races == s.Races,
		"%s: ack state %q events %d races %d, want ok, %d, %d (%v)",
		s.Name, x.sum.State, x.sum.Events, x.sum.Races, s.Events, s.Races, x.err)
}

// raceEntries replays a stream through sp-order in process and counts
// its races per fleet-report entry key (traced.KeyOf), from the
// report's race list rather than from the Races() stream a server
// consumes, so the expectation is exact.
func raceEntries(s stream) (map[string]int64, error) {
	rep, err := trace.ReplayBackend(s.data, "sp-order")
	if err != nil {
		return nil, err
	}
	entries := map[string]int64{}
	for _, race := range rep.Races {
		k := traced.KeyOf(race)
		entries[entryKey(k.Kind.String(), k.First, k.Second)]++
	}
	return entries, nil
}

func entryKey(kind, first, second string) string { return kind + " " + first + " " + second }

// ingest streams a seeded fleet to an sptraced subprocess: a closed
// loop of two back-to-back clients gives throughput, then an open
// loop of seeded Poisson arrivals gives latency.
func (r *runner) ingest() error {
	bin, err := r.sptracedBin()
	if err != nil {
		return err
	}
	var fleet []stream
	var srv *server
	var spare []*server
	defer func() {
		for _, s := range append(spare, srv) {
			if s != nil {
				s.kill()
			}
		}
	}()
	if err := r.setup(3, func(rep int) error {
		specs := make([]scenario, fleetSize)
		for i := range specs {
			specs[i] = scenario{fleetScenarios[i%len(fleetScenarios)], fleetThreads}
		}
		if fleet, err = r.record(specs); err != nil {
			return err
		}
		if srv != nil {
			spare = append(spare, srv)
		}
		srv, err = r.startServer(bin, filepath.Join(r.work, fmt.Sprintf("final-%d.json", rep)))
		return err
	}); err != nil {
		return err
	}
	for _, s := range spare {
		s.kill()
	}
	spare = nil
	entries := make([]map[string]int64, len(fleet))
	for i := range fleet {
		fleet[i].Name = "client-" + fleet[i].Name
		if entries[i], err = raceEntries(fleet[i]); err != nil {
			return err
		}
	}
	if r.flip {
		fleet[0].Races++
	}
	counts := make([]atomic.Int64, len(fleet)) // streams sent per fleet member

	phase := func(dur time.Duration) (map[string]measured, error) {
		closedDur := time.Duration(float64(dur) * closedShare)
		m := r.closedLoop(srv.ingest, fleet, counts, int(closedDur.Seconds()*closedRate))
		r.openLoop(srv.ingest, fleet, counts, dur-closedDur)
		return m, nil
	}
	if err := r.measure(phase); err != nil {
		return err
	}
	if scraped, err := srv.scrape(); r.check(err == nil, "scraping /metrics: %v", err) {
		info("server.accept_waits", scraped["sptraced_accept_waits_total"], "count", 1)
		info("server.workers_busy_hw", scraped["sptraced_workers_busy_highwater"], "count", 1)
	}
	r.e2e["peak_rss_mb"] = measured{srv.peakRSSMB(), 1}
	if err := srv.stop(); err != nil {
		return err
	}
	r.checkFinalReport(srv.report, fleet, entries, counts)
	if !r.traced {
		return nil
	}
	return r.layers(fleet)
}

// closedLoop has two clients send n streams back to back, the fleet
// in turn, and derives the end-to-end metrics from each fleet
// member's median latency, send to ack, as the other workloads do
// from their request kinds: two clients keep two streams in flight,
// so the throughput is twice the events of one pass over the fleet
// over the sum of the members' medians.
func (r *runner) closedLoop(addr string, fleet []stream, counts []atomic.Int64, n int) map[string]measured {
	var next atomic.Int64
	var mu sync.Mutex
	lat, events := map[string][]float64{}, map[string]int64{}
	var wg sync.WaitGroup
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				s := fleet[int(i)%len(fleet)]
				x := r.send(addr, s, 0, int32(i))
				if x.err == nil {
					counts[int(i)%len(fleet)].Add(1)
				}
				if r.checkAck(s, x) {
					mu.Lock()
					lat[s.Name] = append(lat[s.Name], float64(x.done.Sub(x.start).Nanoseconds())/1e6)
					events[s.Name] = s.Events
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	m := r.requestMetrics(lat, events)
	m["events_per_s"] = measured{ingestClients * m["events_per_s"].value, m["events_per_s"].n}
	return m
}

// openLoop sends streams at seeded Poisson arrival times for dur, two
// connections at most, and times each stream from when it was due to
// its ack, so a stall also delays the streams queued behind it. Its
// latencies are printed, not bounded: on a 2-core host the server's
// queue amplifies the host's noise into a 25-40% spread between runs.
func (r *runner) openLoop(addr string, fleet []stream, counts []atomic.Int64, dur time.Duration) {
	rng := rand.New(rand.NewSource(r.seed))
	var due []time.Duration
	for t := rng.ExpFloat64() / openRate; t < dur.Seconds(); t += rng.ExpFloat64() / openRate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	var (
		next                 atomic.Int64
		mu                   sync.Mutex
		lat, queue, late     []float64
		sendMS, ackMS        []float64
		start                = time.Now()
		giveUp               = start.Add(3*dur + 5*time.Second)
		wg                   sync.WaitGroup
		firstSend, lastAcked time.Time
	)
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				k := i % len(fleet)
				at := start.Add(due[i])
				if !r.check(time.Now().Before(giveUp), "%s: stream %d abandoned, the open loop fell too far behind", fleet[k].Name, i) {
					continue
				}
				var lateMS, queueMS float64
				if w := time.Until(at); w > 0 {
					time.Sleep(w)
					lateMS = float64(time.Since(at).Nanoseconds()) / 1e6
				} else {
					queueMS = float64(-w.Nanoseconds()) / 1e6
				}
				x := r.send(addr, fleet[k], 0, int32(i))
				if x.err == nil {
					counts[k].Add(1)
				}
				ok := r.checkAck(fleet[k], x)
				mu.Lock()
				if firstSend.IsZero() || x.start.Before(firstSend) {
					firstSend = x.start
				}
				lastAcked = x.done
				late = append(late, lateMS)
				queue = append(queue, queueMS)
				if ok {
					lat = append(lat, float64(x.done.Sub(at).Nanoseconds())/1e6)
					sendMS = append(sendMS, float64(x.eof.Sub(x.start).Nanoseconds())/1e6)
					ackMS = append(ackMS, float64(x.done.Sub(x.eof).Nanoseconds())/1e6)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	info("open.rate", openRate, "1/s", len(due))
	info("open.achieved_rate", float64(len(lat))/lastAcked.Sub(firstSend).Seconds(), "1/s", len(lat))
	info("client.queue_ms.p99", percentile(queue, 99), "ms", len(queue))
	info("client.send_ms.p50", percentile(sendMS, 50), "ms", len(sendMS))
	info("client.ack_ms.p50", percentile(ackMS, 50), "ms", len(ackMS))
	info("client.ack_ms.p99", percentile(ackMS, 99), "ms", len(ackMS))
	info("gen.late_ms.p99", percentile(late, 99), "ms", len(late))
	info("open.latency_ms.p50", percentile(lat, 50), "ms", len(lat))
	info("open.latency_ms.p99", percentile(lat, 99), "ms", len(lat))
	r.samples["open latency_ms"] = append(r.samples["open latency_ms"], lat...)
}

// checkFinalReport checks the report sptraced wrote on SIGTERM
// against the streams it was sent: every stream completed, and the
// event total adds up stream by stream. Race observations reach the
// fleet report through each stream monitor's Races() channel, which
// loses races emitted before its consumer subscribes (README.md,
// "Findings"), so the race side is checked for soundness only: no
// entry the streams cannot produce and no count above theirs. The
// shortfall is printed.
func (r *runner) checkFinalReport(path string, fleet []stream, entries []map[string]int64, counts []atomic.Int64) {
	data, err := os.ReadFile(path)
	var rep traced.FleetReport
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if !r.check(err == nil, "final report: %v", err) {
		return
	}
	var streams, events, observed int64
	want := map[string]int64{}
	for i, s := range fleet {
		n := counts[i].Load()
		streams += n
		events += n * s.Events
		observed += n * s.Races
		for k, c := range entries[i] {
			want[k] += n * c
		}
	}
	r.check(rep.Streams.Completed == streams && rep.Streams.Failed == 0 && rep.Events.Total == events,
		"final report: %d/%d streams ok (%d failed), %d/%d events",
		rep.Streams.Completed, streams, rep.Streams.Failed, rep.Events.Total, events)
	sound := rep.Races.Observed <= observed
	for _, e := range rep.Entries {
		sound = sound && e.Count <= want[entryKey(e.Kind, e.First, e.Second)]
	}
	r.check(sound, "final report: %d races observed, more than the %d the streams hold, or an entry the streams cannot produce",
		rep.Races.Observed, observed)
	info("server.races_expected", float64(observed), "count", int(streams))
	info("server.races_lost", float64(observed-rep.Races.Observed), "count", int(streams))
	info("server.entries_lost", float64(len(want)-len(rep.Entries)), "count", len(want))
}
