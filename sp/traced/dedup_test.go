package traced

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// goldenZone is the zone of the golden fleet's folds: fixed, and away
// from UTC, so that a table that renders its times in any zone but the
// one Fold was given reads differently.
var goldenZone = time.FixedZone("UTC-03:30", -(3*60+30)*60)

// blankSite is a non-string site that renders empty, so its side keys
// by the raced address.
type blankSite struct{}

func (blankSite) String() string { return "" }

// goldenFleet folds a fixed fleet into a fresh table, one fold per
// stream at a fixed time, and returns the table and the fold times.
// Recorded streams replay as sptraced replays them (sp-order, with
// streamWorkers). Keys repeat within and across streams; one stream
// arrives twice, folded in UTC the second time; one fails inside a
// record after its races; one has no race. A hand-built race list
// covers the sites a trace cannot carry (a non-string site, one that
// renders empty, an empty string, none) and a string site that spells
// a site-less side's name; its stream is named after one of its sites.
func goldenFleet(t *testing.T) (*dedup, []time.Time) {
	t.Helper()
	racy := siteStream(t, 1, "a.go:1", "a.go:2", "b.go:1", nil)
	streams := []struct {
		name   string
		data   []byte
		races  []sp.Race
		zone   *time.Location
		failed bool
	}{
		{name: "first", data: racy},
		{name: "overlap", data: siteStream(t, 2, "a.go:2", "b.go:1", "c.go:1", nil)},
		{name: "x5", races: []sp.Race{
			{Addr: 3, Kind: sp.WriteWrite, First: 1, Second: 2, FirstSite: 7, SecondSite: ""},
			{Addr: 3, Kind: sp.WriteWrite, First: 3, Second: 4, FirstSite: "7", SecondSite: "x3"},
			{Addr: 5, Kind: sp.ReadWrite, First: 5, Second: 6},
			{Addr: 9, Kind: sp.WriteRead, First: 7, Second: 8, FirstSite: "a.go:1"},
			{Addr: 5, Kind: sp.ReadWrite, First: 9, Second: 10, FirstSite: blankSite{}, SecondSite: "x5"},
			{Addr: 2, Kind: sp.WriteRead, First: 11, Second: 12, FirstSite: "b.go:1", SecondSite: "a.go:1"},
		}},
		{name: "again", data: racy, zone: time.UTC},
		// A fork record cut before its operand, after the stream's races.
		{name: "broken", data: append(siteStream(t, 3, "a.go:1", "c.go:1", "d.go:1"), byte(trace.Fork)), failed: true},
		{name: "quiet"},
		{name: "disjoint", data: siteStream(t, 4, "e.go:1", "e.go:2")},
	}
	d := newDedup()
	base := time.Date(2025, time.March, 9, 1, 59, 58, 987_654_321, goldenZone)
	var times []time.Time
	for i, st := range streams {
		races := st.races
		if st.data != nil {
			m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithWorkers(streamWorkers))
			if err := trace.Replay(bytes.NewReader(st.data), m); (err != nil) != st.failed {
				t.Fatalf("stream %s: replay: %v", st.name, err)
			}
			races = m.Report().Races
		}
		at := base.Add(time.Duration(i) * 1_250_000_001)
		if st.zone != nil {
			at = at.In(st.zone)
		}
		d.Fold(st.name, races, at)
		times = append(times, at)
	}
	return d, times
}

// TestFleetReportGolden pins the fleet table's report: the golden
// fleet's Snapshot and BySite, marshalled as /report marshals them,
// must match testdata/fleet_report.golden.json byte for byte, and
// every first-seen and last-seen time must equal one fold's time
// exactly, its location included. The table must intern only the names
// its entries reference, so no name of a stream that started no entry
// ("again", "quiet"). A change meant to alter the report replaces the
// file with the text this test logs on failure.
func TestFleetReportGolden(t *testing.T) {
	d, times := goldenFleet(t)
	snap := d.Snapshot()
	got, err := json.MarshalIndent(struct {
		Entries     []RaceEntry `json:"entries"`
		RacesBySite []SiteCount `json:"racesBySite"`
	}{snap, d.BySite()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile("testdata/fleet_report.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the golden fleet's report differs from testdata/fleet_report.golden.json; it reads:\n%s", got)
	}
	isFold := func(at time.Time) bool {
		for _, ft := range times {
			if at == ft {
				return true
			}
		}
		return false
	}
	referenced := map[string]bool{}
	for j, e := range snap {
		if !isFold(e.FirstSeen) || !isFold(e.LastSeen) {
			t.Errorf("entry %d: first seen %v (%p), last seen %v (%p): not exactly a fold's time",
				j, e.FirstSeen, e.FirstSeen.Location(), e.LastSeen, e.LastSeen.Location())
		}
		referenced[e.First], referenced[e.Second], referenced[e.ExampleStream] = true, true, true
	}
	if n := d.names.Len(); n != len(referenced) {
		t.Errorf("the table interned %d names, but its entries reference %d", n, len(referenced))
	}
}

// TestFleetTableHoldsNoPointers pins the fleet table's entry and its
// index's key and value as types without a pointer, so the collector
// never scans the table's bulk, and an entry at 64 bytes or less.
func TestFleetTableHoldsNoPointers(t *testing.T) {
	index := reflect.TypeOf(newDedup().index)
	for _, typ := range []reflect.Type{reflect.TypeFor[entry](), index.Key(), index.Elem()} {
		if path, ok := pointerIn(typ); ok {
			t.Errorf("%v holds a pointer: %s", typ, path)
		}
	}
	if size := reflect.TypeFor[entry]().Size(); size > 64 {
		t.Errorf("an entry takes %d bytes, want at most 64", size)
	}
}

// pointerIn returns the path to the first pointer typ holds, and
// whether it holds one.
func pointerIn(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Array:
		if typ.Len() > 0 {
			if path, ok := pointerIn(typ.Elem()); ok {
				return "[0]" + path, true
			}
		}
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if path, ok := pointerIn(f.Type); ok {
				return "." + f.Name + path, true
			}
		}
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return " (" + typ.Kind().String() + ")", true
	}
	return "", false
}

// BenchmarkFleetFold times one fold: a forkjoin stream's races (1,024
// threads) into a table that already holds about 50K entries, those of
// bench's ingest fleet (its six scenarios, four seeds each, at 1,024
// threads). Each stream's races come from a replay of its recorded
// trace, as sptraced replays it, so their sites are the trace's
// strings. From the second iteration on the table holds the stream's
// keys too.
func BenchmarkFleetFold(b *testing.B) {
	races := func(name string, seed int64) []sp.Race {
		sc, _ := workload.ScenarioByName(name)
		var buf bytes.Buffer
		if _, err := workload.RecordTrace(sc.Build(1024, seed), &buf); err != nil {
			b.Fatal(err)
		}
		rep, err := trace.ReplayBackend(buf.Bytes(), "sp-order", sp.WithWorkers(streamWorkers))
		if err != nil {
			b.Fatal(err)
		}
		return rep.Races
	}
	d := newDedup()
	at := time.Now()
	for seed := range int64(4) {
		for _, name := range []string{"forkjoin", "pipeline", "lockheavy", "readmostly", "planted", "forkheavy"} {
			d.Fold(name, races(name, 1000+seed), at)
		}
	}
	stream := races("forkjoin", 1)
	b.ReportAllocs()
	for b.Loop() {
		d.Fold("forkjoin", stream, at)
	}
}
