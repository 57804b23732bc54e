package trace_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// sampleEvents is a well-formed event stream exercising every record
// kind, usable both for Writer round-trips and Replay.
func sampleEvents() []trace.Event {
	return []trace.Event{
		{Op: trace.Fork, Parent: 0}, // creates t1, t2
		{Op: trace.Begin, Thread: 1},
		{Op: trace.Write, Thread: 1, Addr: 7, Site: "leafA", HasSite: true},
		{Op: trace.Begin, Thread: 2},
		{Op: trace.Acquire, Thread: 2, Lock: 3},
		{Op: trace.Read, Thread: 2, Addr: 7},
		{Op: trace.Release, Thread: 2, Lock: 3},
		{Op: trace.Join, Left: 1, Right: 2}, // creates t3
		{Op: trace.Begin, Thread: 3},
		{Op: trace.Read, Thread: 3, Addr: 7, Site: "leafA", HasSite: true},
	}
}

func encode(t *testing.T, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, ev := range evs {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatalf("WriteEvent(%v): %v", ev, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func TestWriterReaderRoundTrip(t *testing.T) {
	want := sampleEvents()
	data := encode(t, want)
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Version() != 2 {
		t.Fatalf("version = %d, want 2", rd.Version())
	}
	got, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, want)
	}
}

func TestWriteEventInvalidOp(t *testing.T) {
	w := trace.NewWriter(&bytes.Buffer{})
	if err := w.WriteEvent(trace.Event{Op: trace.Op(42)}); err == nil {
		t.Fatal("WriteEvent with bogus op succeeded")
	}
}

func TestEventStrings(t *testing.T) {
	for _, ev := range sampleEvents() {
		if s := ev.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Fatalf("event %+v renders as %q", ev, s)
		}
	}
}

func TestReplayAppliesEvents(t *testing.T) {
	data := encode(t, sampleEvents())
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	if err := trace.Replay(bytes.NewReader(data), m); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := m.Relation(1, 2); got != sp.Parallel {
		t.Fatalf("t1 vs t2 = %v, want parallel", got)
	}
	rep := m.Report()
	if rep.Forks != 1 || rep.Joins != 1 || rep.Accesses != 3 || rep.Threads != 4 {
		t.Fatalf("unexpected replayed report %+v", rep)
	}
	// t1's write and t2's read race; t3's read is serial after the join.
	if len(rep.Races) != 1 || rep.Races[0].Kind != sp.WriteRead {
		t.Fatalf("races = %v, want one write-read", rep.Races)
	}
	// The replayed race carries the interned site string.
	if site, ok := rep.Races[0].FirstSite.(string); !ok || site != "leafA" {
		t.Fatalf("first site = %#v, want interned \"leafA\"", rep.Races[0].FirstSite)
	}
}

// TestReplayRejectsInvalidTraces drives Replay over hand-built streams
// that are syntactically valid but semantically broken; each must
// error without panicking.
func TestReplayRejectsInvalidTraces(t *testing.T) {
	cases := []struct {
		name string
		evs  []trace.Event
		want string
	}{
		{"fork of retired thread", []trace.Event{
			{Op: trace.Fork, Parent: 0}, {Op: trace.Fork, Parent: 0},
		}, "not live"},
		{"join of unknown thread", []trace.Event{
			{Op: trace.Fork, Parent: 0}, {Op: trace.Join, Left: 1, Right: 9},
		}, "not live"},
		{"join with itself", []trace.Event{
			{Op: trace.Fork, Parent: 0}, {Op: trace.Join, Left: 1, Right: 1},
		}, "itself"},
		{"access by unknown thread", []trace.Event{
			{Op: trace.Read, Thread: 5, Addr: 1},
		}, "not live"},
		{"begin of unknown thread", []trace.Event{
			{Op: trace.Begin, Thread: 77},
		}, "not live"},
		{"release unheld", []trace.Event{
			{Op: trace.Release, Thread: 0, Lock: 2},
		}, "unheld"},
		{"release twice", []trace.Event{
			{Op: trace.Acquire, Thread: 0, Lock: 2},
			{Op: trace.Release, Thread: 0, Lock: 2},
			{Op: trace.Release, Thread: 0, Lock: 2},
		}, "unheld"},
		{"release across fork", []trace.Event{
			{Op: trace.Acquire, Thread: 0, Lock: 2},
			{Op: trace.Fork, Parent: 0},
			{Op: trace.Release, Thread: 1, Lock: 2},
		}, "unheld"},
		{"put of retired thread", []trace.Event{
			{Op: trace.Fork, Parent: 0}, {Op: trace.Put, Thread: 0},
		}, "not live"},
		{"get of never-put token", []trace.Event{
			{Op: trace.Fork, Parent: 0},
			{Op: trace.Get, Thread: 1, Tokens: []sp.ThreadID{2}},
		}, "never put"},
		{"get by unknown thread", []trace.Event{
			{Op: trace.Get, Thread: 9, Tokens: []sp.ThreadID{0}},
		}, "not live"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := encode(t, tc.evs)
			m := sp.MustMonitor()
			err := trace.Replay(bytes.NewReader(data), m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Replay err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestReplayPutGet replays sync-object edge streams: the edge must
// order the producer's write before the consumer's read (no race), the
// twin without the Get must race, and held locks must survive a Put.
func TestReplayPutGet(t *testing.T) {
	synced := []trace.Event{
		{Op: trace.Fork, Parent: 0}, // t1 producer, t2 consumer
		{Op: trace.Begin, Thread: 1},
		{Op: trace.Write, Thread: 1, Addr: 7, Site: "send.go:3", HasSite: true},
		{Op: trace.Put, Thread: 1}, // diamond t3,t4; continuation t5; token t1
		{Op: trace.Begin, Thread: 2},
		{Op: trace.Get, Thread: 2, Tokens: []sp.ThreadID{1}},
		{Op: trace.Read, Thread: 2, Addr: 7, Site: "recv.go:9", HasSite: true},
		{Op: trace.Join, Left: 5, Right: 2}, // t6
	}
	for _, name := range sp.BackendNames() {
		m := sp.MustMonitor(sp.WithBackend(name))
		if err := trace.Replay(bytes.NewReader(encode(t, synced)), m); err != nil {
			t.Fatalf("%s: Replay: %v", name, err)
		}
		rep := m.Report()
		if len(rep.Races) != 0 {
			t.Fatalf("%s: false race on channel-synchronized replay: %v", name, rep.Races)
		}
		if rep.Puts != 1 || rep.Gets != 1 || rep.Threads != 7 {
			t.Fatalf("%s: puts=%d gets=%d threads=%d, want 1/1/7", name, rep.Puts, rep.Gets, rep.Threads)
		}
	}
	// The twin without the Get is the false positive this machinery
	// exists to avoid being a false positive: here it is a real race.
	racy := []trace.Event{
		synced[0], synced[1], synced[2], synced[3],
		{Op: trace.Begin, Thread: 2},
		synced[6], synced[7],
	}
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	if err := trace.Replay(bytes.NewReader(encode(t, racy)), m); err != nil {
		t.Fatalf("Replay racy twin: %v", err)
	}
	if rep := m.Report(); len(rep.Races) != 1 {
		t.Fatalf("racy twin: races = %v, want 1", rep.Races)
	}

	// A critical section spanning a Put: the continuation releases the
	// lock the original thread acquired.
	locked := []trace.Event{
		{Op: trace.Fork, Parent: 0}, // t1, t2
		{Op: trace.Begin, Thread: 1},
		{Op: trace.Acquire, Thread: 1, Lock: 4},
		{Op: trace.Put, Thread: 1}, // t1 -> t5, lock carried over
		{Op: trace.Release, Thread: 5, Lock: 4},
		{Op: trace.Begin, Thread: 2},
		{Op: trace.Get, Thread: 2, Tokens: []sp.ThreadID{1}},
		{Op: trace.Join, Left: 5, Right: 2},
	}
	m = sp.MustMonitor(sp.WithBackend("sp-order"))
	if err := trace.Replay(bytes.NewReader(encode(t, locked)), m); err != nil {
		t.Fatalf("Replay with lock across put: %v", err)
	}
}

func TestReplayRequiresFreshMonitor(t *testing.T) {
	data := encode(t, sampleEvents())
	m := sp.MustMonitor()
	m.Fork(m.Main()) // consume IDs 1 and 2; main is retired
	// The recovered Monitor panic ("Fork by ended thread") surfaces as
	// an error instead of crashing the replayer.
	if err := trace.Replay(bytes.NewReader(data), m); err == nil {
		t.Fatal("Replay on a used monitor succeeded")
	}
}

func TestReplayTruncatedInputErrors(t *testing.T) {
	data := encode(t, sampleEvents())
	for cut := 0; cut < len(data); cut++ {
		// Each attempt gets a fresh monitor; replay must never panic
		// and must error unless the cut lands on a record boundary.
		m := sp.MustMonitor()
		_ = trace.Replay(bytes.NewReader(data[:cut]), m)
	}
	m := sp.MustMonitor()
	if err := trace.Replay(bytes.NewReader(data[:6]), m); err == nil {
		t.Fatal("want error on mid-record cut (opcode with missing operand)")
	}
}

func TestStat(t *testing.T) {
	data := encode(t, sampleEvents())
	st, err := trace.Stat(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	want := trace.Stats{
		Version: 2, Bytes: int64(len(data)), Events: 10,
		Forks: 1, Joins: 1, Begins: 3, Reads: 2, Writes: 1,
		Acquires: 1, Releases: 1,
		Threads: 4, PeakParallel: 2, Addrs: 1, Locks: 1, Sites: 1,
	}
	if st != want {
		t.Fatalf("Stat:\n got %+v\nwant %+v", st, want)
	}
	if s := st.String(); !strings.Contains(s, "peak-parallel  2") {
		t.Fatalf("Stats.String missing fields:\n%s", s)
	}
	if _, err := trace.Stat(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("Stat of truncated trace succeeded")
	}
}

// TestRecordedTraceStatMatchesReport cross-checks Stat against the
// recording monitor's own counters on a generated workload, and both
// access counts against the replayed tree's Read/Write steps.
func TestRecordedTraceStatMatchesReport(t *testing.T) {
	tr := workload.PlantRaces(workload.DefaultPlantConfig(), rand.New(rand.NewSource(9))).Tree
	var buf bytes.Buffer
	m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithTrace(&buf))
	sp.Replay(tr, m)
	rep := m.Report()
	if err := m.TraceErr(); err != nil {
		t.Fatalf("TraceErr: %v", err)
	}
	st, err := trace.Stat(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Forks != rep.Forks || st.Joins != rep.Joins || st.Threads != rep.Threads {
		t.Fatalf("structure mismatch: stat %+v vs report %+v", st, rep)
	}
	if st.Reads+st.Writes != rep.Accesses {
		t.Fatalf("accesses: stat %d+%d, report %d", st.Reads, st.Writes, rep.Accesses)
	}
	var steps int64
	for _, leaf := range tr.Threads() {
		for _, s := range leaf.Steps {
			if s.Op == spt.Read || s.Op == spt.Write {
				steps++
			}
		}
	}
	if rep.Accesses != steps {
		t.Fatalf("report counts %d accesses, the tree performs %d", rep.Accesses, steps)
	}
	if st.PeakParallel < 2 || st.PeakParallel > st.Threads {
		t.Fatalf("implausible peak parallelism %d (threads %d)", st.PeakParallel, st.Threads)
	}
}

// TestReplayPreservesRelations replays a recorded trace through every
// full-query backend and checks sampled relations against the live
// monitor's answers.
func TestReplayPreservesRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := spt.DefaultGenConfig(40)
	cfg.Steps = 3
	cfg.Locations = 8
	tr := spt.Generate(cfg, rng)
	var buf bytes.Buffer
	live := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithTrace(&buf))
	sp.Replay(tr, live)
	live.Report()
	// Queries are defined only between threads that have begun; the
	// trace records exactly those Begin events.
	evs, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var begun []sp.ThreadID
	for _, ev := range evs {
		if ev.Op == trace.Begin {
			begun = append(begun, ev.Thread)
		}
	}
	if len(begun) < 3 {
		t.Fatalf("workload too small: %d begun threads", len(begun))
	}
	for _, info := range sp.Backends() {
		if !info.FullQueries {
			continue
		}
		m := sp.MustMonitor(sp.WithBackend(info.Name))
		if err := trace.Replay(bytes.NewReader(buf.Bytes()), m); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		for _, a := range begun {
			for _, b := range []sp.ThreadID{begun[0], begun[len(begun)/2], begun[len(begun)-1]} {
				if got, want := m.Relation(a, b), live.Relation(a, b); got != want {
					t.Fatalf("%s: Relation(t%d,t%d) = %v, live sp-order says %v",
						info.Name, a, b, got, want)
				}
			}
		}
	}
}
