package traced_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/traced"
)

// startServer runs a traced.Server on an ephemeral TCP listener and
// returns it with its ingest address. Cleanup drains it.
func startServer(t *testing.T, cfg traced.Config) (*traced.Server, string) {
	t.Helper()
	s, err := traced.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, l.Addr().String()
}

// keyCounts computes the expected dedup table of one serial report.
func keyCounts(rep sp.Report) map[traced.RaceKey]int64 {
	counts := map[traced.RaceKey]int64{}
	for _, r := range rep.Races {
		counts[traced.KeyOf(r)]++
	}
	return counts
}

// TestFleetIngestMatchesSerial streams a generated fleet concurrently
// and checks the aggregate against per-client serial ground truth: the
// ack and fleet totals must equal what each client's recording run
// already reported, and the dedup table must equal the dedup of the
// union of the serial reports.
func TestFleetIngestMatchesSerial(t *testing.T) {
	const clients = 8
	fleet, err := workload.FleetTraces(clients, 48, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, traced.Config{Workers: 4})

	var wg sync.WaitGroup
	acks := make([]traced.StreamSummary, clients)
	errs := make([]error, clients)
	for i, c := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acks[i], errs[i] = traced.Send(addr, c.Name, bytes.NewReader(c.Data))
		}()
	}
	wg.Wait()

	want := map[traced.RaceKey]int64{}
	var wantObserved, wantEvents int64
	for i, c := range fleet {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		ack := acks[i]
		if ack.State != "ok" {
			t.Errorf("client %d: state %s (%s)", i, ack.State, ack.Error)
		}
		if ack.Name != c.Name {
			t.Errorf("client %d: ack name %q, want %q", i, ack.Name, c.Name)
		}
		if got, wantRaces := ack.Races, int64(len(c.Report.Races)); got != wantRaces {
			t.Errorf("client %d: ack races %d, serial run found %d", i, got, wantRaces)
		}
		if ack.PeakParallel < 2 {
			t.Errorf("client %d: peak parallelism %d, want >= 2", i, ack.PeakParallel)
		}
		wantObserved += int64(len(c.Report.Races))
		wantEvents += ack.Events
		for k, n := range keyCounts(c.Report) {
			want[k] += n
		}
	}

	rep := s.Report()
	if rep.Streams.Total != clients || rep.Streams.Completed != clients || rep.Streams.Failed != 0 {
		t.Errorf("streams = %+v, want %d completed", rep.Streams, clients)
	}
	if rep.Races.Observed != wantObserved {
		t.Errorf("observed %d races, serial runs found %d", rep.Races.Observed, wantObserved)
	}
	if rep.Events.Total != wantEvents {
		t.Errorf("events total %d, acks sum to %d", rep.Events.Total, wantEvents)
	}
	if rep.Races.Unique != len(want) {
		t.Errorf("unique %d, want %d", rep.Races.Unique, len(want))
	}
	got := map[traced.RaceKey]int64{}
	for _, e := range rep.Entries {
		got[traced.RaceKey{Kind: kindOf(t, e.Kind), First: e.First, Second: e.Second}] = e.Count
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("entry %v: count %d, want %d", k, got[k], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("entries %d, want %d", len(got), len(want))
	}
}

// kindOf parses a rendered AccessKind back to the enum.
func kindOf(t *testing.T, s string) sp.AccessKind {
	t.Helper()
	for _, k := range []sp.AccessKind{sp.WriteWrite, sp.ReadWrite, sp.WriteRead} {
		if k.String() == s {
			return k
		}
	}
	t.Fatalf("unknown access kind %q", s)
	return 0
}

// TestDedupAcrossStreams streams the identical planted-race trace from
// three clients: every dedup entry must have been seen by all three
// streams, with exactly three times the single-stream count.
func TestDedupAcrossStreams(t *testing.T) {
	const clients = 3
	fleet, err := workload.PlantedFleet(clients, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	single := keyCounts(fleet[0].Report)
	if len(single) == 0 {
		t.Fatal("planted workload produced no races")
	}
	s, addr := startServer(t, traced.Config{})
	var wg sync.WaitGroup
	for _, c := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ack, err := traced.Send(addr, c.Name, bytes.NewReader(c.Data)); err != nil || ack.State != "ok" {
				t.Errorf("%s: err=%v state=%v", c.Name, err, ack.State)
			}
		}()
	}
	wg.Wait()

	rep := s.Report()
	if rep.Races.Unique != len(single) {
		t.Fatalf("unique %d, single-stream dedup has %d", rep.Races.Unique, len(single))
	}
	for _, e := range rep.Entries {
		k := traced.RaceKey{Kind: kindOf(t, e.Kind), First: e.First, Second: e.Second}
		if e.Streams != clients {
			t.Errorf("entry %v: seen by %d streams, want %d", k, e.Streams, clients)
		}
		if e.Count != clients*single[k] {
			t.Errorf("entry %v: count %d, want %d", k, e.Count, clients*single[k])
		}
		if e.ExampleStream == "" || e.FirstSeen.IsZero() || e.LastSeen.Before(e.FirstSeen) {
			t.Errorf("entry %v: bad observation metadata %+v", k, e)
		}
	}
	if len(rep.RacesBySite) == 0 {
		t.Error("RacesBySite is empty despite races")
	}
}

// racyTrace records a fork whose two branches write one address at two
// sites: one write-write race. Without the join the trace stops right
// after the race.
func racyTrace(t *testing.T, join bool) ([]byte, sp.Report) {
	t.Helper()
	var buf bytes.Buffer
	m := sp.MustMonitor(sp.WithTrace(&buf))
	l, r := m.Fork(m.Main())
	m.WriteAt(l, 1, "left.go:1")
	m.WriteAt(r, 1, "right.go:1")
	if join {
		m.Join(l, r)
	}
	rep := m.Report()
	if err := m.TraceErr(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestStreamsCountedExactly ingests one racy trace 4,100 times: every
// entry's stream count and observation count must be exact.
func TestStreamsCountedExactly(t *testing.T) {
	const streams = 4100
	data, one := racyTrace(t, true)
	s, err := traced.New(traced.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		if sum := s.IngestTrace(fmt.Sprintf("s%d", i), bytes.NewReader(data)); sum.State != "ok" {
			t.Fatalf("stream %d: %+v", i, sum)
		}
	}
	rep := s.Report()
	single := keyCounts(one)
	if len(rep.Entries) != len(single) {
		t.Fatalf("%d entries, want %d", len(rep.Entries), len(single))
	}
	for _, e := range rep.Entries {
		k := traced.RaceKey{Kind: kindOf(t, e.Kind), First: e.First, Second: e.Second}
		if e.Streams != streams || e.Count != streams*single[k] {
			t.Errorf("entry %v: streams %d count %d, want %d and %d", k, e.Streams, e.Count, streams, streams*single[k])
		}
	}
	if want := int64(streams * len(one.Races)); rep.Races.Observed != want {
		t.Errorf("observed %d races, want %d", rep.Races.Observed, want)
	}
}

// TestFailedStreamKeepsRaces sends a stream whose tail is malformed
// after its race: the stream fails, and the race found before the
// failure still reaches the fleet table.
func TestFailedStreamKeepsRaces(t *testing.T) {
	data, one := racyTrace(t, false)
	s, err := traced.New(traced.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum := s.IngestTrace("broken", bytes.NewReader(append(data, 0xff))) // a reserved opcode
	if sum.State != "failed" || sum.Races != int64(len(one.Races)) {
		t.Fatalf("summary %+v, want failed with %d races", sum, len(one.Races))
	}
	rep := s.Report()
	want := keyCounts(one)
	if rep.Races.Observed != int64(len(one.Races)) || len(rep.Entries) != len(want) {
		t.Fatalf("report races %+v with %d entries, want %d observations in %d entries",
			rep.Races, len(rep.Entries), len(one.Races), len(want))
	}
	for _, e := range rep.Entries {
		k := traced.RaceKey{Kind: kindOf(t, e.Kind), First: e.First, Second: e.Second}
		if e.Count != want[k] || e.Streams != 1 || e.ExampleStream != "broken" {
			t.Errorf("entry %+v, want count %d from the one failed stream", e, want[k])
		}
	}
}

// TestMalformedStreamIsolation interleaves broken streams with good
// ones: garbage bytes, a mid-record truncation, and a bad handshake
// each fail their own stream and nothing else.
func TestMalformedStreamIsolation(t *testing.T) {
	fleet, err := workload.PlantedFleet(2, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, traced.Config{})

	// Garbage after a valid handshake.
	ack, err := traced.Send(addr, "garbage", strings.NewReader("this is not a trace"))
	if err != nil {
		t.Fatalf("garbage send: %v", err)
	}
	if ack.State != "failed" || ack.Error == "" {
		t.Errorf("garbage stream: ack %+v, want failed", ack)
	}

	// Valid header, then a record cut off mid-operand.
	ack, err = traced.Send(addr, "truncated", strings.NewReader("SPTR\x01\x01"))
	if err != nil {
		t.Fatalf("truncated send: %v", err)
	}
	if ack.State != "failed" {
		t.Errorf("truncated stream: ack %+v, want failed", ack)
	}

	// A connection that cannot even say hello.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, "HELLO 1.0\r\n")
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	line, _ := io.ReadAll(c)
	c.Close()
	var badAck traced.StreamSummary
	if err := json.Unmarshal(bytes.TrimSpace(line), &badAck); err != nil {
		t.Fatalf("bad-handshake ack %q: %v", line, err)
	}
	if badAck.State != "failed" {
		t.Errorf("bad handshake: ack %+v, want failed", badAck)
	}

	// Good streams around the failures still work.
	for _, c := range fleet {
		ack, err := traced.Send(addr, c.Name, bytes.NewReader(c.Data))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if ack.State != "ok" || ack.Races != int64(len(c.Report.Races)) {
			t.Errorf("%s: ack %+v, want ok with %d races", c.Name, ack, len(c.Report.Races))
		}
	}

	rep := s.Report()
	if rep.Streams.Failed != 3 || rep.Streams.Completed != 2 {
		t.Errorf("streams = %+v, want 2 ok / 3 failed", rep.Streams)
	}
	if rep.Races.Unique != len(keyCounts(fleet[0].Report)) {
		t.Errorf("unique %d, want %d (failed streams must not pollute the table)",
			rep.Races.Unique, len(keyCounts(fleet[0].Report)))
	}
}

// TestStreamLimits checks that per-stream event and site-length limits
// fail only the offending stream.
func TestStreamLimits(t *testing.T) {
	fleet, err := workload.PlantedFleet(1, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := fleet[0].Data

	s, addr := startServer(t, traced.Config{MaxEvents: 16})
	ack, err := traced.Send(addr, "too-long", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if ack.State != "failed" || !strings.Contains(ack.Error, "limit") {
		t.Errorf("over-limit stream: ack %+v, want a limit failure", ack)
	}
	if ack.Events != 16 {
		t.Errorf("over-limit stream applied %d events, want exactly 16", ack.Events)
	}
	if rep := s.Report(); rep.Streams.Failed != 1 {
		t.Errorf("streams = %+v, want 1 failed", rep.Streams)
	}

	s2, addr2 := startServer(t, traced.Config{MaxSiteLen: 2})
	// Planted traces intern site strings longer than 2 bytes.
	ack, err = traced.Send(addr2, "big-sites", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if ack.State != "failed" {
		t.Errorf("site-capped stream: ack %+v, want failed", ack)
	}
	_ = s2
}

// TestNewRejectsNegativeLimits checks that New fails on a negative
// limit, which the zero-only defaults would pass through: a negative
// MaxEvents would fail every stream after one event, a negative
// MaxBytes every stream at its magic, and a negative ReadTimeout every
// ack, whose write deadline it would set in the past.
func TestNewRejectsNegativeLimits(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   traced.Config
	}{
		{"MaxEvents", traced.Config{MaxEvents: -1}},
		{"MaxBytes", traced.Config{MaxBytes: -1}},
		{"ReadTimeout", traced.Config{ReadTimeout: -time.Second}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			s, err := traced.New(tc.cfg)
			if err == nil {
				s.Shutdown(context.Background())
				t.Fatalf("New accepted a negative %s", tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("New's error %q does not name %s", err, tc.field)
			}
		})
	}
}

// TestUnixSocketIngest exercises the unix-socket listener and the
// "unix:" client address form.
func TestUnixSocketIngest(t *testing.T) {
	fleet, err := workload.PlantedFleet(1, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := traced.New(traced.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/sptraced.sock"
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ack, err := traced.Send("unix:"+path, "over-unix", bytes.NewReader(fleet[0].Data))
	if err != nil {
		t.Fatal(err)
	}
	if ack.State != "ok" || ack.Races != int64(len(fleet[0].Report.Races)) {
		t.Errorf("unix stream: ack %+v, want ok with %d races", ack, len(fleet[0].Report.Races))
	}
}

// TestGracefulDrain starts a stream, begins Shutdown mid-flight, and
// checks the drain contract: health flips to draining, new connections
// are refused, the in-flight stream finishes and is accounted, and the
// final report reflects everything.
func TestGracefulDrain(t *testing.T) {
	fleet, err := workload.PlantedFleet(1, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := fleet[0].Data
	s, addr := startServer(t, traced.Config{})

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := fmt.Fprintf(c, "%s slow\n", traced.ProtoHello); err != nil {
		t.Fatal(err)
	}
	half := len(data) / 2
	if _, err := c.Write(data[:half]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream active", func() bool { return s.Report().Streams.Active == 1 })

	type drainResult struct {
		rep traced.FleetReport
		err error
	}
	done := make(chan drainResult, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rep, err := s.Shutdown(ctx)
		done <- drainResult{rep, err}
	}()
	waitFor(t, "draining", s.Draining)

	// The health endpoint reports the drain.
	rr := httptest.NewRecorder()
	s.HTTPHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", rr.Code)
	}

	// New connections are refused once the listener is down.
	waitFor(t, "listener closed", func() bool {
		c2, err := net.Dial("tcp", addr)
		if err == nil {
			c2.Close()
		}
		return err != nil
	})

	// The in-flight stream still completes.
	if _, err := c.Write(data[half:]); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	line, err := readAckLine(c)
	if err != nil {
		t.Fatalf("reading ack during drain: %v", err)
	}
	var ack traced.StreamSummary
	if err := json.Unmarshal(line, &ack); err != nil {
		t.Fatalf("ack %q: %v", line, err)
	}
	if ack.State != "ok" || ack.Races != int64(len(fleet[0].Report.Races)) {
		t.Errorf("drained stream: ack %+v, want ok with %d races", ack, len(fleet[0].Report.Races))
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("Shutdown: %v", res.err)
	}
	rep := res.rep
	if !rep.Draining || rep.Streams.Active != 0 || rep.Streams.Completed != 1 || rep.Streams.Failed != 0 {
		t.Errorf("final report streams = %+v draining=%v, want 1 completed, draining", rep.Streams, rep.Draining)
	}
	if rep.Races.Unique != len(keyCounts(fleet[0].Report)) {
		t.Errorf("final report unique %d, want %d", rep.Races.Unique, len(keyCounts(fleet[0].Report)))
	}
}

// TestShutdownTimeoutForceCloses checks the other half of the drain
// contract: a stream that never finishes is force-closed and accounted
// as failed when the drain deadline passes.
func TestShutdownTimeoutForceCloses(t *testing.T) {
	s, addr := startServer(t, traced.Config{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "%s stuck\n", traced.ProtoHello)
	c.Write([]byte("SPTR\x01")) // header only, then silence
	waitFor(t, "stream active", func() bool { return s.Report().Streams.Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	if rep.Streams.Failed != 1 || rep.Streams.Active != 0 {
		t.Errorf("final report streams = %+v, want the stuck stream failed", rep.Streams)
	}
}

// TestHTTPEndpoints checks the report and metrics surfaces end to end.
func TestHTTPEndpoints(t *testing.T) {
	fleet, err := workload.PlantedFleet(1, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, traced.Config{})
	if ack, err := traced.Send(addr, "one", bytes.NewReader(fleet[0].Data)); err != nil || ack.State != "ok" {
		t.Fatalf("send: ack=%+v err=%v", ack, err)
	}
	hs := httptest.NewServer(s.HTTPHandler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep traced.FleetReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decoding /report: %v", err)
	}
	resp.Body.Close()
	if rep.Streams.Completed != 1 || rep.Races.Unique == 0 || rep.Backend == "" {
		t.Errorf("/report = %+v, want 1 completed stream with races", rep)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{
		"sptraced_streams_total", "sptraced_streams_active",
		"sptraced_events_total", "sptraced_events_per_second",
		"sptraced_races_observed_total", "sptraced_races_unique",
		"sptraced_peak_parallelism", "sptraced_draining",
	} {
		if !strings.Contains(string(body), m) {
			t.Errorf("/metrics is missing %s", m)
		}
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
}

// TestBatchIngest exercises the listener-less IngestTrace path.
func TestBatchIngest(t *testing.T) {
	fleet, err := workload.FleetTraces(3, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := traced.New(traced.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wantObserved int64
	for _, c := range fleet {
		sum := s.IngestTrace(c.Name, bytes.NewReader(c.Data))
		if sum.State != "ok" || sum.Races != int64(len(c.Report.Races)) {
			t.Errorf("%s: summary %+v, want ok with %d races", c.Name, sum, len(c.Report.Races))
		}
		wantObserved += int64(len(c.Report.Races))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Races.Observed != wantObserved || rep.Streams.Completed != 3 {
		t.Errorf("final report %+v, want %d observations over 3 streams", rep.Races, wantObserved)
	}
}

// waitFor polls cond until it holds or the test deadline looms.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// readAckLine reads one newline-terminated line from c.
func readAckLine(c net.Conn) ([]byte, error) {
	var line []byte
	buf := make([]byte, 1)
	for {
		if _, err := c.Read(buf); err != nil {
			if err == io.EOF && len(line) > 0 {
				return line, nil
			}
			return line, err
		}
		if buf[0] == '\n' {
			return line, nil
		}
		line = append(line, buf[0])
	}
}

// TestReadDeadlineMidRecord checks that a client that goes silent
// inside a record fails its stream with the connection's deadline
// error, not as a truncated trace, after the events it did send.
func TestReadDeadlineMidRecord(t *testing.T) {
	_, addr := startServer(t, traced.Config{ReadTimeout: 100 * time.Millisecond})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A Fork by t0, a Begin of t1, then a Read by t1 cut after its
	// thread operand; the write side stays open.
	fmt.Fprintf(c, "%s stalled\n", traced.ProtoHello)
	io.WriteString(c, "SPTR\x02\x01\x00\x03\x01\x04\x01")
	line, err := readAckLine(c)
	if err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	var ack traced.StreamSummary
	if err := json.Unmarshal(line, &ack); err != nil {
		t.Fatalf("ack %q: %v", line, err)
	}
	if ack.State != "failed" || ack.Events != 2 {
		t.Fatalf("ack %+v, want a failed stream after 2 events", ack)
	}
	if !strings.HasPrefix(ack.Error, "traced: event 2: wire: reading operand: ") ||
		!strings.HasSuffix(ack.Error, "i/o timeout") {
		t.Fatalf("ack error %q, want the read deadline inside event 2's operand", ack.Error)
	}
}
