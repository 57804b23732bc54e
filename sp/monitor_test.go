package sp_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/sp"
	"repro/sp/metrics"
	"repro/sp/trace"
)

// TestReportConcurrentWithAccesses hammers Report against in-flight
// accesses on the lock-free backends, under the two-reader protocol and
// under ALL-SETS. An access that slipped past the finished check must
// complete without panicking and log its race like any other; only
// accesses that observe the finished monitor may panic, with the
// documented message. The race log is lossless: every race of the first
// Report is in the second, in the same order, and the late races are
// what the second adds. Each Report's Locations must be exactly the
// distinct addresses of its races, and each Report publishes what the
// late accesses counted, so the registry reads every Report's counts.
func TestReportConcurrentWithAccesses(t *testing.T) {
	for _, tc := range []struct {
		backend   string
		lockAware bool
	}{{"sp-hybrid", false}, {"depa", false}, {"sp-hybrid", true}, {"depa", true}} {
		backend := tc.backend
		if tc.lockAware {
			backend += " lock-aware"
		}
		late := 0
		for i := 0; i < 200; i++ {
			reg := metrics.NewRegistry()
			m := sp.MustMonitor(sp.WithBackend(tc.backend), sp.WithLockAwareness(tc.lockAware), sp.WithMetrics(reg))
			l, r := m.Fork(m.Main())
			var wg, started sync.WaitGroup
			started.Add(2)
			for _, tid := range []sp.ThreadID{l, r} {
				wg.Add(1)
				go func(tid sp.ThreadID) {
					defer wg.Done()
					defer func() {
						if p := recover(); p != nil && !strings.Contains(fmt.Sprint(p), "finished monitor") {
							panic(p)
						}
					}()
					// Races against the sibling thread until Report
					// finishes the monitor. Each write has its own
					// site, so no two races are equal.
					for j := 0; ; j++ {
						m.WriteAt(tid, uint64(7+j%5), j)
						if j == 0 {
							started.Done()
						}
					}
				}(tid)
			}
			started.Wait()
			first := m.Report()
			checkLocations(t, backend, first)
			checkPublished(t, backend, first, reg)
			wg.Wait()
			rep := m.Report()
			checkLocations(t, backend+" with the late races", rep)
			checkPublished(t, backend+" with the late races", rep, reg)
			k := 0 // races of first found in rep, in order
			for _, r := range rep.Races {
				if k < len(first.Races) && reflect.DeepEqual(r, first.Races[k]) {
					k++
				}
			}
			if k < len(first.Races) {
				t.Fatalf("%s run %d: race %d of the first Report (%v) is missing from the second or out of order there",
					backend, i, k, first.Races[k])
			}
			late += len(rep.Races) - len(first.Races)
		}
		t.Logf("%s: %d late races over 200 runs", backend, late)
	}
}

// checkPublished checks that the access, query and race-log series of
// reg, into which only rep's monitor publishes, read rep's counts.
func checkPublished(t *testing.T, name string, rep sp.Report, reg *metrics.Registry) {
	t.Helper()
	snap := reg.Snapshot()
	queries, _ := snap.Value("sp_monitor_queries_total")
	got := [3]float64{snap.Sum("sp_monitor_access_total"), queries, snap.Sum("sp_racelog_shard_emits_total")}
	if want := [3]float64{float64(rep.Accesses), float64(rep.Queries), float64(len(rep.Races))}; got != want {
		t.Fatalf("%s: registry accesses, queries and races read %v, the Report %v", name, got, want)
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
// sharing staying race-free — plus site-less formatting.
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
		}
	}
}

// TestLockAwareMonitor checks the ALL-SETS protocol through the Monitor:
// a common mutex suppresses the race, even when one side holds more
// locks than the other; disjoint lock sets do not. The left side may
// release some of its acquisitions (leftDrop) before it writes: a mutex
// acquired twice and released once is still held.
func TestLockAwareMonitor(t *testing.T) {
	cases := []struct {
		name          string
		left, right   []int
		leftDrop      []int
		wantRace      bool
		leftS, rightS string // lock sets of the reported race
	}{
		{name: "common lock", left: []int{1}, right: []int{1}},
		{name: "partial overlap", left: []int{1, 2}, right: []int{1}},
		{name: "disjoint locks", left: []int{1}, right: []int{2}, wantRace: true, leftS: "{m1}", rightS: "{m2}"},
		{name: "re-acquired lock", left: []int{1, 1}, leftDrop: []int{1}, right: []int{1}},
		{name: "released lock", left: []int{3, 1, 2}, leftDrop: []int{2}, right: []int{2}, wantRace: true, leftS: "{m1,m3}", rightS: "{m2}"},
	}
	for _, tc := range cases {
		m := sp.MustMonitor(sp.WithLockAwareness(true))
		l, r := m.Fork(m.Main())
		for _, side := range []struct {
			t           sp.ThreadID
			locks, drop []int
		}{{l, tc.left, tc.leftDrop}, {r, tc.right, nil}} {
			for _, lk := range side.locks {
				m.Acquire(side.t, lk)
			}
			held := slices.Clone(side.locks)
			for _, lk := range side.drop {
				m.Release(side.t, lk)
				i := slices.Index(held, lk)
				held = slices.Delete(held, i, i+1)
			}
			m.Write(side.t, 0)
			for i := len(held) - 1; i >= 0; i-- {
				m.Release(side.t, held[i])
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

// mustPanic runs f and fails the test unless it panics with a message
// containing want (any message when want is empty).
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	p := func() (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}()
	if p == nil {
		t.Fatalf("%s: expected panic", name)
	}
	if msg := fmt.Sprint(p); !strings.Contains(msg, want) {
		t.Fatalf("%s: panic %q, want mention of %q", name, msg, want)
	}
}

// TestMonitorMisusePanics pins the guard rails: events by ended threads
// (a Put's inner diamond threads included), unbalanced releases, unknown
// backends, serial-backend queries on threads that have not begun, and
// ill-nested or swapped joins on every backend.
func TestMonitorMisusePanics(t *testing.T) {
	if _, err := sp.NewMonitor(sp.WithBackend("no-such-backend")); err == nil ||
		!strings.Contains(err.Error(), "sp-order") {
		t.Fatalf("unknown backend must fail listing alternatives, got %v", err)
	}
	mustPanic(t, "fork after fork", "not live", func() {
		m := sp.MustMonitor()
		m.Fork(m.Main())
		m.Fork(m.Main())
	})
	mustPanic(t, "access after retire", "not live", func() {
		m := sp.MustMonitor()
		m.Fork(m.Main())
		m.Write(m.Main(), 0)
	})
	mustPanic(t, "access by a put's inner thread", "not live", func() {
		m := sp.MustMonitor()
		cont := m.Put(m.Main()) // IDs are dense: the diamond is cont-2, cont-1
		m.Write(cont-2, 0)
	})
	mustPanic(t, "release unheld", "unheld", func() {
		m := sp.MustMonitor()
		m.Release(m.Main(), 3)
	})
	mustPanic(t, "unbalanced release (lock-aware)", "unheld", func() {
		m := sp.MustMonitor(sp.WithLockAwareness(true))
		m.Acquire(m.Main(), 3)
		m.Release(m.Main(), 3)
		m.Release(m.Main(), 3)
	})
	for _, backend := range []string{"sp-bags", "sp-order-implicit", "english-hebrew"} {
		mustPanic(t, backend+" query on a thread that has not begun", "", func() {
			m := sp.MustMonitor(sp.WithBackend(backend))
			l, r := m.Fork(m.Main())
			m.Write(r, 0)
			m.Relation(l, r)
		})
	}
	for _, backend := range sp.BackendNames() {
		mustPanic(t, backend+" ill-nested join", "not well nested", func() {
			m := sp.MustMonitor(sp.WithBackend(backend))
			l, r := m.Fork(m.Main())
			l2, _ := m.Fork(r)
			m.Join(l, l2) // joins terminals of two different forks
		})
		mustPanic(t, backend+" swapped join", "not well nested", func() {
			m := sp.MustMonitor(sp.WithBackend(backend))
			l, r := m.Fork(m.Main())
			m.Join(r, l) // the continuation branch passed as the spawned one
		})
	}
	mustPanic(t, "event after report", "finished", func() {
		m := sp.MustMonitor()
		m.Report()
		m.Write(m.Main(), 0)
	})
}

// TestRejectedEventLeavesNoTrace checks that a Get of an unpublished
// token and a Release of an unheld lock panic before they change the
// monitor: the recorded trace holds no Get, Release or Begin of the
// offending thread.
func TestRejectedEventLeavesNoTrace(t *testing.T) {
	var buf bytes.Buffer
	m := sp.MustMonitor(sp.WithTrace(&buf))
	l, r := m.Fork(m.Main())
	mustPanic(t, "get of an unpublished token", "never put", func() { m.Get(l, r) })
	mustPanic(t, "release of an unheld lock", "unheld", func() { m.Release(r, 3) })
	m.Report()
	if err := m.TraceErr(); err != nil {
		t.Fatalf("TraceErr: %v", err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Thread == l || ev.Thread == r {
			t.Fatalf("rejected event left a record in the trace: %s", ev)
		}
	}
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
