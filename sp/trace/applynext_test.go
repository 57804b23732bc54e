package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// pathBackends are the backends that accept live (concurrent-order)
// traces, the ones sptraced ingests hostile input on.
var pathBackends = []string{"sp-order", "sp-hybrid", "depa"}

// replayByEvents is Replay written as a Reader.Next and Applier.Apply
// loop: the path that decodes each record into an Event first.
func replayByEvents(r io.Reader, m *sp.Monitor) error {
	rd, err := trace.NewReader(r)
	if err != nil {
		return err
	}
	a := trace.NewApplier(m)
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", a.Applied(), err)
		}
		if err := a.Apply(ev); err != nil {
			return err
		}
	}
}

// outcome is what one replay of data on backend returns: its error
// text, or its report's signature.
func outcome(replay func(io.Reader, *sp.Monitor) error, data []byte, backend string) string {
	m := sp.MustMonitor(sp.WithBackend(backend))
	if err := replay(bytes.NewReader(data), m); err != nil {
		return "error: " + err.Error()
	}
	return trace.Signature(m.Report())
}

// samePaths fails unless Replay and the Next + Apply loop return the
// same error text, or no error and the same signature, on each of the
// path backends.
func samePaths(t testing.TB, name string, data []byte) {
	t.Helper()
	for _, b := range pathBackends {
		direct, events := outcome(trace.Replay, data, b), outcome(replayByEvents, data, b)
		if direct != events {
			t.Fatalf("%s on %s: Replay and the Next + Apply loop differ:\n--- Replay ---\n%s\n--- Next + Apply ---\n%s",
				name, b, direct, events)
		}
	}
}

// edgeTrace records a small channel pipeline, a trace of every record
// kind but locks, Put and Get included.
func edgeTrace(t testing.TB) []byte {
	t.Helper()
	sc, ok := workload.ScenarioByName("channel-pipeline")
	if !ok {
		t.Fatal("channel-pipeline scenario missing")
	}
	var buf bytes.Buffer
	if _, err := workload.RecordTrace(sc.Build(8, 3), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzCorpus reads the committed corpus of the named fuzz target.
func fuzzCorpus(t testing.TB, target string) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus for %s: %v", target, err)
	}
	out := map[string][]byte{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a header line and one []byte("...") line.
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if header != "go test fuzz v1" || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", f, err)
		}
		out[filepath.Base(f)] = []byte(data)
	}
	return out
}

// TestReplayMatchesApplyLoop checks that ApplyNext, the path Replay and
// sptraced take, behaves as Reader.Next followed by Applier.Apply: on
// every selftest workload at CI's two sizes, every prefix cut of an
// edge-bearing trace, and every file of the committed fuzz corpus.
func TestReplayMatchesApplyLoop(t *testing.T) {
	for _, size := range []struct {
		n    int
		seed int64
	}{{96, 1}, {64, 42}} {
		for _, sc := range workload.Scenarios() {
			data, _ := recordScenario(t, sc, size.n, size.seed)
			samePaths(t, fmt.Sprintf("%s -n %d -seed %d", sc.Name, size.n, size.seed), data)
		}
	}
	data := edgeTrace(t)
	if !bytes.Contains(data, []byte{0x0c}) {
		t.Fatal("the edge trace holds no Get record")
	}
	for cut := 0; cut <= len(data); cut++ {
		samePaths(t, fmt.Sprintf("edge trace cut at %d of %d bytes", cut, len(data)), data[:cut])
	}
	for name, data := range fuzzCorpus(t, "FuzzReaderRoundTrip") {
		samePaths(t, "corpus "+name, data)
	}
}

// FuzzApplyNextMatchesApply feeds arbitrary bytes to Replay and to the
// Next + Apply loop: any difference in error text or report fails.
func FuzzApplyNextMatchesApply(f *testing.F) {
	for _, data := range fuzzCorpus(f, "FuzzReaderRoundTrip") {
		f.Add(data)
	}
	data := edgeTrace(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		samePaths(t, "input", data)
	})
}

// TestReaderTokensSurviveNextRecord checks that the tokens of a Get
// from Reader.Next are the caller's: decoding the next Get, which
// reuses the decoder's token buffer, leaves them as they were.
func TestReaderTokensSurviveNextRecord(t *testing.T) {
	data := encode(t, []trace.Event{
		{Op: trace.Get, Thread: 0, Tokens: []sp.ThreadID{1, 2, 3}},
		{Op: trace.Get, Thread: 0, Tokens: []sp.ThreadID{7, 8, 9}},
		{Op: trace.Fork, Parent: 0},
	})
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]sp.ThreadID
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev.Tokens)
	}
	want := [][]sp.ThreadID{{1, 2, 3}, {7, 8, 9}, nil}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens after decoding every record = %v, want %v", got, want)
	}
}

// failingSource returns data, then err.
type failingSource struct {
	data []byte
	err  error
}

func (s *failingSource) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, s.err
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// TestReplaySourceErrorMidRecord checks that a source failing inside a
// record surfaces as its own error, not as a truncation, under the
// event's number.
func TestReplaySourceErrorMidRecord(t *testing.T) {
	errSource := errors.New("source broke")
	data := encode(t, sampleEvents())
	// The header, the Fork, then the opcode of the Begin that follows.
	src := &failingSource{data: data[:8], err: errSource}
	err := trace.Replay(src, sp.MustMonitor())
	if !errors.Is(err, errSource) {
		t.Fatalf("Replay err = %v, want the source's error", err)
	}
	if want := "trace: event 1: wire: reading operand: source broke"; err.Error() != want {
		t.Fatalf("Replay err = %q, want %q", err, want)
	}
}

// TestAllocsApplyNextSite pins an access at the previous access's site,
// decoded and applied by ApplyNext, at no allocation: the record is
// decoded into the Reader's own, the site comes from the string table,
// and the Applier reuses its box.
func TestAllocsApplyNextSite(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 3000
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for range n {
		w.ReadAt(0, 1, "main.go:12")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := trace.NewApplier(sp.MustMonitor(sp.WithBackend("sp-order")))
	next := func() {
		if err := a.ApplyNext(rd); err != nil {
			t.Fatal(err)
		}
	}
	for range n / 4 {
		next()
	}
	if got := testing.AllocsPerRun(n/2, next); got != 0 {
		t.Fatalf("ApplyNext of a Read at the previous site allocates %v objects, want 0", got)
	}
}
