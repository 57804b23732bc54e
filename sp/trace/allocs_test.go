package trace_test

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/sp"
	"repro/sp/trace"
)

// The allocation guards count heap objects, which the race detector's
// instrumentation changes, so they skip under -race. CI runs them
// without it: go test ./sp/... -run Allocs.

// sitedReport is a report of n races with string and nil sites, a
// third of them lock-aware, on n/10 locations: the shape of a replayed
// report.
func sitedReport(n int) sp.Report {
	rep := sp.Report{Threads: 3 * int64(n), Forks: int64(n), Joins: int64(n), Accesses: 4 * int64(n), Queries: 5 * int64(n)}
	for i := range n {
		r := sp.Race{Addr: uint64(i / 10), Kind: sp.AccessKind(i % 3), First: sp.ThreadID(i), Second: sp.ThreadID(i + 1)}
		if i%2 == 0 {
			r.FirstSite, r.SecondSite = "main.go:"+strconv.Itoa(i%50), "worker.go:7"
		}
		if i%3 == 0 {
			r.FirstLocks, r.SecondLocks = sp.LockSet{}, sp.LockSet{1, 20}
		}
		rep.Races = append(rep.Races, r)
		if i%10 == 0 {
			rep.Locations = append(rep.Locations, r.Addr)
		}
	}
	return rep
}

// TestAllocsSignature bounds Signature's allocations well under one per
// race, where rendering every race through fmt cost about six objects
// per race, and its bytes under twice the text's: the text is allocated
// once at its exact size, where a builder left to grow allocates
// several times it.
func TestAllocsSignature(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rep := sitedReport(10000)
	if n := testing.AllocsPerRun(20, func() { trace.Signature(rep) }); n > 64 {
		t.Fatalf("Signature allocates %v objects for 10,000 races, want at most 64", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sig := trace.Signature(rep)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(sig)) {
		t.Fatalf("Signature allocates %d bytes for a %d-byte text, want at most twice the text", got, len(sig))
	}
}

// TestAllocsApplierSite pins a sited access at no allocation while the
// site repeats: the Applier boxes a site for the monitor once and
// reuses the box for the next access at an equal site.
func TestAllocsApplierSite(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	a := trace.NewApplier(m)
	ev := trace.Event{Op: trace.Read, Thread: m.Main(), Addr: 1, Site: "main.go:12", HasSite: true}
	if err := a.Apply(ev); err != nil {
		t.Fatal(err)
	}
	// An equal site in a string of its own, as a decoder may hand out.
	ev.Site = strings.Clone(ev.Site)
	if n := testing.AllocsPerRun(1000, func() { a.Apply(ev) }); n != 0 {
		t.Fatalf("a Read at the previous event's site allocates %v objects, want 0", n)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}
