package traced

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// siteStream records a seeded random fork-join program whose accesses
// touch four addresses at sites drawn from sites, nil among them for a
// site-less access (whose key side is its address). Its races repeat
// keys, and streams drawing on overlapping site sets share keys.
func siteStream(t *testing.T, seed int64, sites ...any) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	m := sp.MustMonitor(sp.WithTrace(&buf))
	var walk func(th sp.ThreadID, depth int) sp.ThreadID
	walk = func(th sp.ThreadID, depth int) sp.ThreadID {
		for range 1 + rng.Intn(3) {
			addr, site := uint64(rng.Intn(4)), sites[rng.Intn(len(sites))]
			if rng.Intn(3) == 0 {
				m.ReadAt(th, addr, site)
			} else {
				m.WriteAt(th, addr, site)
			}
		}
		if depth == 0 {
			return th
		}
		l, r := m.Fork(th)
		l, r = walk(l, depth-1), walk(r, depth-1)
		return m.Join(l, r)
	}
	walk(m.Main(), 4)
	m.Report()
	if err := m.TraceErr(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFoldMatchesTally ingests streams serially through one server and
// compares the fleet table, entry by entry and field by field, with a
// reference fold of per-key tallies: each stream's own report grouped
// by sp.Tally, every row adding its count and one stream to its entry.
// Keys repeat within and across streams, one stream arrives twice, and
// one fails mid-record. The reference numbers streams where the server
// stamps fold times, so times compare by order only: every time a
// stream's fold set is the same, and later streams' are no earlier.
func TestFoldMatchesTally(t *testing.T) {
	racy := siteStream(t, 1, "a.go:1", "a.go:2", "b.go:1", nil)
	streams := []struct {
		name   string
		data   []byte
		failed bool
	}{
		{name: "first", data: racy},
		{name: "overlap", data: siteStream(t, 2, "a.go:2", "b.go:1", "c.go:1", nil)},
		{name: "again", data: racy},
		// A fork record cut before its operand, after the stream's races.
		{name: "broken", data: append(siteStream(t, 3, "a.go:1", "c.go:1", "d.go:1"), byte(trace.Fork)), failed: true},
		{name: "disjoint", data: siteStream(t, 4, "e.go:1", "e.go:2")},
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	type refEntry struct {
		RaceEntry       // FirstSeen and LastSeen zero
		first, last int // the streams whose folds set FirstSeen and LastSeen
	}
	var want []refEntry
	index := map[RaceKey]int{}
	repeatsInStream := false
	for i, st := range streams {
		if sum := s.IngestTrace(st.name, bytes.NewReader(st.data)); (sum.State == "failed") != st.failed {
			t.Fatalf("stream %s: %+v", st.name, sum)
		}
		m := sp.MustMonitor(sp.WithBackend(s.cfg.Backend), sp.WithWorkers(streamWorkers))
		if err := trace.Replay(bytes.NewReader(st.data), m); (err != nil) != st.failed {
			t.Fatalf("stream %s: replay: %v", st.name, err)
		}
		for _, row := range sp.Tally(m.Report().Races) {
			j, ok := index[row.Key]
			if !ok {
				j = len(want)
				index[row.Key] = j
				want = append(want, refEntry{RaceEntry: RaceEntry{
					Kind: row.Key.Kind.String(), First: row.Key.First, Second: row.Key.Second,
					Addr: row.Race.Addr, ExampleStream: st.name,
				}, first: i})
			}
			want[j].Count += row.Count
			want[j].Streams++
			want[j].last = i
			repeatsInStream = repeatsInStream || row.Count > 1
		}
	}
	if !repeatsInStream || !slices.ContainsFunc(want, func(e refEntry) bool { return e.Streams > 2 }) {
		t.Fatal("no key repeats within a stream, or none is shared by streams other than the resent one")
	}

	got := s.dedup.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	foldTime := map[int]time.Time{}
	stamp := func(stream int, at time.Time, field string, j int) {
		if prev, ok := foldTime[stream]; ok && !prev.Equal(at) {
			t.Errorf("entry %d: %s %v, but stream %s's fold stamped %v", j, field, at, streams[stream].name, prev)
		}
		foldTime[stream] = at
	}
	for j, w := range want {
		g := got[j]
		stamp(w.first, g.FirstSeen, "FirstSeen", j)
		stamp(w.last, g.LastSeen, "LastSeen", j)
		g.FirstSeen, g.LastSeen = time.Time{}, time.Time{}
		if g != w.RaceEntry {
			t.Errorf("entry %d: %+v, want %+v", j, g, w.RaceEntry)
		}
	}
	order := slices.Sorted(maps.Keys(foldTime))
	for k := 1; k < len(order); k++ {
		if a, b := foldTime[order[k-1]], foldTime[order[k]]; b.Before(a) {
			t.Errorf("stream %s folded at %v, before stream %s at %v",
				streams[order[k]].name, b, streams[order[k-1]].name, a)
		}
	}
}

// TestAllocsFoldKnownKeys pins folding a sited race list whose keys
// are all in the table at no allocation, however many races it holds:
// each race is one lookup and an update in place.
func TestAllocsFoldKnownKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, n := range []int{1, 100, 10_000} {
		races := make([]sp.Race, n)
		for i := range races {
			races[i] = sp.Race{
				Addr: uint64(i), Kind: sp.WriteRead, First: 1, Second: 2,
				FirstSite: fmt.Sprintf("a.go:%d", i%61), SecondSite: fmt.Sprintf("b.go:%d", i%59),
			}
		}
		d := newDedup()
		at := time.Now()
		d.Fold("first", races, at)
		if a := testing.AllocsPerRun(10, func() { d.Fold("next", races, at) }); a != 0 {
			t.Errorf("folding %d races with known keys allocates %v objects, want 0", n, a)
		}
	}
}

// BenchmarkIngestStream times one stream through IngestTrace, from
// decoding to the fold into the fleet table, on a racy stream
// (forkjoin) and a sparse one (planted) of 1,024 threads each. From the
// second iteration on the table holds the stream's keys, as it does for
// a fleet that runs the same programs again.
func BenchmarkIngestStream(b *testing.B) {
	for _, name := range []string{"forkjoin", "planted"} {
		b.Run(name, func(b *testing.B) {
			sc, _ := workload.ScenarioByName(name)
			var buf bytes.Buffer
			if _, err := workload.RecordTrace(sc.Build(1024, 1), &buf); err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			b.ReportAllocs()
			for b.Loop() {
				if sum := s.IngestTrace(name, bytes.NewReader(buf.Bytes())); sum.State != "ok" {
					b.Fatalf("%s: %+v", name, sum)
				}
			}
		})
	}
}
