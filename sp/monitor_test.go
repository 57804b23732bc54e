package sp_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/sp"
)

// TestReportConcurrentWithAccesses hammers Report against in-flight
// accesses on the synchronized backend. An access that slipped past the
// finished check must complete without panicking (its race is dropped
// from the stream, never sent on the closed channel); only accesses
// that observe the finished monitor may panic, with the documented
// message.
func TestReportConcurrentWithAccesses(t *testing.T) {
	for i := 0; i < 200; i++ {
		m := sp.MustMonitor(sp.WithBackend("sp-hybrid"))
		l, r := m.Fork(m.Main())
		var wg sync.WaitGroup
		for _, tid := range []sp.ThreadID{l, r} {
			wg.Add(1)
			go func(tid sp.ThreadID) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil && !strings.Contains(fmt.Sprint(p), "finished monitor") {
						panic(p)
					}
				}()
				for j := 0; j < 50; j++ {
					m.Write(tid, 7) // races against the sibling thread
				}
			}(tid)
		}
		m.Report()
		wg.Wait()
	}
}

// TestLiveMonitorBasics walks the canonical a;(b∥c);d program through
// the raw event API — no parse tree anywhere — and checks relations and
// the absence of races on disjoint data.
func TestLiveMonitorBasics(t *testing.T) {
	for _, name := range sp.BackendNames() {
		m, err := sp.NewMonitor(sp.WithBackend(name))
		if err != nil {
			t.Fatal(err)
		}
		a := m.Main()
		m.Write(a, 100)
		b, c := m.Fork(a)
		m.Write(b, 1)
		m.Write(c, 2)
		if got := m.Relation(a, c); got != sp.Precedes {
			t.Fatalf("%s: a vs c = %v, want precedes", name, got)
		}
		if got := m.Relation(b, c); got != sp.Parallel {
			t.Fatalf("%s: b vs c = %v, want parallel", name, got)
		}
		d := m.Join(b, c)
		m.Read(d, 1)
		m.Read(d, 2)
		m.Read(d, 100)
		if got := m.Relation(b, d); got != sp.Precedes {
			t.Fatalf("%s: b vs d = %v, want precedes", name, got)
		}
		rep := m.Report()
		if len(rep.Races) != 0 {
			t.Fatalf("%s: unexpected races %v", name, rep.Races)
		}
		if rep.Threads != 4 || rep.Forks != 1 || rep.Joins != 1 || rep.Accesses != 6 {
			t.Fatalf("%s: counters wrong: %+v", name, rep)
		}
	}
}

// TestLiveMonitorDetectsRace checks every access-kind pair of two
// parallel threads through every backend — the race and its kind, read
// sharing staying race-free — plus the streaming channel and site-less
// formatting.
func TestLiveMonitorDetectsRace(t *testing.T) {
	cases := []struct {
		first, second bool // write?
		kind          sp.AccessKind
		race          bool
	}{
		{first: true, second: true, kind: sp.WriteWrite, race: true},
		{first: true, second: false, kind: sp.WriteRead, race: true},
		{first: false, second: true, kind: sp.ReadWrite, race: true},
		{first: false, second: false}, // read sharing is safe
	}
	access := func(m *sp.Monitor, th sp.ThreadID, write bool) {
		if write {
			m.Write(th, 7)
		} else {
			m.Read(th, 7)
		}
	}
	for _, name := range sp.BackendNames() {
		for _, tc := range cases {
			m := sp.MustMonitor(sp.WithBackend(name))
			l, r := m.Fork(m.Main())
			access(m, l, tc.first)
			access(m, r, tc.second)
			j := m.Join(l, r)
			m.Read(j, 7) // serial after both: no second race
			rep := m.Report()
			if !tc.race {
				if len(rep.Races) != 0 {
					t.Fatalf("%s: read sharing flagged: %v", name, rep.Races)
				}
				continue
			}
			if len(rep.Races) != 1 || rep.Races[0].Kind != tc.kind || rep.Races[0].Addr != 7 {
				t.Fatalf("%s: races = %v, want one %v on x7", name, rep.Races, tc.kind)
			}
			if got := rep.Races[0].String(); !strings.Contains(got, tc.kind.String()+" race on x7") {
				t.Fatalf("%s: race string %q", name, got)
			}
			select {
			case streamed, ok := <-m.Races():
				if !ok || streamed.Addr != 7 {
					t.Fatalf("%s: streamed race wrong: %v %v", name, streamed, ok)
				}
			default:
				t.Fatalf("%s: race not streamed", name)
			}
			// Channel closes after Report.
			if _, ok := <-m.Races(); ok {
				t.Fatalf("%s: Races() not closed after Report", name)
			}
		}
	}
}

// TestLockAwareMonitor checks the ALL-SETS protocol through the Monitor:
// a common mutex suppresses the race, even when one side holds more
// locks than the other; disjoint lock sets do not.
func TestLockAwareMonitor(t *testing.T) {
	cases := []struct {
		name          string
		left, right   []int
		wantRace      bool
		leftS, rightS string // lock sets of the reported race
	}{
		{name: "common lock", left: []int{1}, right: []int{1}},
		{name: "partial overlap", left: []int{1, 2}, right: []int{1}},
		{name: "disjoint locks", left: []int{1}, right: []int{2}, wantRace: true, leftS: "{m1}", rightS: "{m2}"},
	}
	for _, tc := range cases {
		m := sp.MustMonitor(sp.WithLockAwareness(true))
		l, r := m.Fork(m.Main())
		for _, side := range []struct {
			t     sp.ThreadID
			locks []int
		}{{l, tc.left}, {r, tc.right}} {
			for _, lk := range side.locks {
				m.Acquire(side.t, lk)
			}
			m.Write(side.t, 0)
			for i := len(side.locks) - 1; i >= 0; i-- {
				m.Release(side.t, side.locks[i])
			}
		}
		m.Join(l, r)
		races := m.Report().Races
		if !tc.wantRace {
			if len(races) != 0 {
				t.Fatalf("%s: a common lock must suppress the race: %v", tc.name, races)
			}
			continue
		}
		if len(races) != 1 {
			t.Fatalf("%s: disjoint lock sets must race: %v", tc.name, races)
		}
		if races[0].FirstLocks.String() != tc.leftS || races[0].SecondLocks.String() != tc.rightS {
			t.Fatalf("%s: lock sets wrong: %v", tc.name, races[0])
		}
	}
}

// TestMonitorMisusePanics pins the guard rails: events by ended threads,
// unbalanced releases, unknown backends, serial-backend queries on
// threads that have not begun, ill-nested joins.
func TestMonitorMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	if _, err := sp.NewMonitor(sp.WithBackend("no-such-backend")); err == nil ||
		!strings.Contains(err.Error(), "sp-order") {
		t.Fatalf("unknown backend must fail listing alternatives, got %v", err)
	}
	mustPanic("fork after fork", func() {
		m := sp.MustMonitor()
		m.Fork(m.Main())
		m.Fork(m.Main())
	})
	mustPanic("access after retire", func() {
		m := sp.MustMonitor()
		m.Fork(m.Main())
		m.Write(m.Main(), 0)
	})
	mustPanic("release unheld", func() {
		m := sp.MustMonitor()
		m.Release(m.Main(), 3)
	})
	mustPanic("unbalanced release (lock-aware)", func() {
		m := sp.MustMonitor(sp.WithLockAwareness(true))
		m.Acquire(m.Main(), 3)
		m.Release(m.Main(), 3)
		m.Release(m.Main(), 3)
	})
	for _, backend := range []string{"sp-bags", "sp-order-implicit", "english-hebrew"} {
		mustPanic(backend+" query on a thread that has not begun", func() {
			m := sp.MustMonitor(sp.WithBackend(backend))
			l, r := m.Fork(m.Main())
			m.Write(r, 0)
			m.Relation(l, r)
		})
	}
	mustPanic("ill-nested join", func() {
		m := sp.MustMonitor(sp.WithBackend("sp-bags"))
		l, r := m.Fork(m.Main())
		l2, _ := m.Fork(r)
		m.Join(l, l2) // joins terminals of two different forks
	})
	mustPanic("event after report", func() {
		m := sp.MustMonitor()
		m.Report()
		m.Write(m.Main(), 0)
	})
}

// TestRaceDetectionOff checks WithRaceDetection(false) still maintains
// relations but reports nothing.
func TestRaceDetectionOff(t *testing.T) {
	m := sp.MustMonitor(sp.WithRaceDetection(false))
	l, r := m.Fork(m.Main())
	m.Write(l, 7)
	m.Write(r, 7)
	if !m.Parallel(l, r) {
		t.Fatal("relations must still work")
	}
	rep := m.Report()
	if len(rep.Races) != 0 || rep.Accesses != 2 {
		t.Fatalf("unexpected report %+v", rep)
	}
}

// TestRegistryListing checks the registry surface the cmd tools consume.
func TestRegistryListing(t *testing.T) {
	names := sp.BackendNames()
	want := []string{"depa", "english-hebrew", "offset-span", "sp-bags", "sp-hybrid", "sp-order", "sp-order-implicit"}
	if len(names) != len(want) {
		t.Fatalf("backends = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("backends = %v, want %v", names, want)
		}
	}
	for _, info := range sp.Backends() {
		if info.Description == "" || info.QueryBound == "" {
			t.Fatalf("backend %s lacks documentation: %+v", info.Name, info)
		}
	}
}

// TestWithTraceRecordsAndFlushes checks the WithTrace option: events
// are encoded to the sink, Report flushes the buffered stream, and
// identical runs produce identical bytes (recording is deterministic).
func TestWithTraceRecordsAndFlushes(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithTrace(&buf))
		l, r := m.Fork(m.Main())
		m.WriteAt(l, 7, "siteL")
		m.Acquire(r, 3)
		m.ReadAt(r, 7, "siteR")
		m.Release(r, 3)
		after := m.Join(l, r)
		m.Read(after, 7)
		if buf.Len() != 0 {
			t.Fatal("trace reached the sink before Report flushed it")
		}
		rep := m.Report()
		if err := m.TraceErr(); err != nil {
			t.Fatalf("TraceErr: %v", err)
		}
		if rep.Forks != 1 || rep.Joins != 1 || rep.Accesses != 3 {
			t.Fatalf("unexpected report %+v", rep)
		}
		return buf.Bytes()
	}
	first := run()
	if !bytes.HasPrefix(first, []byte("SPTR")) {
		t.Fatalf("trace does not start with the SPTR magic: %q", first[:min(8, len(first))])
	}
	if !bytes.Contains(first, []byte("siteL")) || !bytes.Contains(first, []byte("siteR")) {
		t.Fatal("access sites not interned into the trace")
	}
	if second := run(); !bytes.Equal(first, second) {
		t.Fatal("recording the same run twice produced different traces")
	}
}

// TestWithTraceOffNoErr pins that TraceErr is nil without WithTrace.
func TestWithTraceOffNoErr(t *testing.T) {
	m := sp.MustMonitor()
	m.Write(m.Main(), 1)
	m.Report()
	if err := m.TraceErr(); err != nil {
		t.Fatalf("TraceErr without WithTrace: %v", err)
	}
}
