package sp_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/sp"
)

// TestTallyGroupsByKey pins the race key (string sites as they are,
// other sites rendered, a missing or empty site replaced by the
// address) and the tally: one row per key in first-seen order, its
// first race, and a count per key that sums to the races tallied.
func TestTallyGroupsByKey(t *testing.T) {
	races := []sp.Race{
		{Addr: 1, Kind: sp.WriteWrite, First: 1, Second: 2, FirstSite: "a.go:1", SecondSite: "b.go:2"},
		{Addr: 3, Kind: sp.WriteRead, First: 3, Second: 4},
		{Addr: 2, Kind: sp.WriteWrite, First: 5, Second: 6, FirstSite: "a.go:1", SecondSite: "b.go:2"},
		{Addr: 1, Kind: sp.ReadWrite, First: 7, Second: 8, FirstSite: 7, SecondSite: ""},
		{Addr: 3, Kind: sp.WriteRead, First: 9, Second: 10},
	}
	want := []struct {
		key   sp.RaceKey
		first sp.ThreadID
		count int64
	}{
		{sp.RaceKey{Kind: sp.WriteWrite, First: "a.go:1", Second: "b.go:2"}, 1, 2},
		{sp.RaceKey{Kind: sp.WriteRead, First: "x3", Second: "x3"}, 3, 2},
		{sp.RaceKey{Kind: sp.ReadWrite, First: "7", Second: "x1"}, 7, 1},
	}
	got := sp.Tally(races)
	if len(got) != len(want) {
		t.Fatalf("tally has %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Key != w.key || got[i].Race.First != w.first || got[i].Count != w.count {
			t.Errorf("row %d = %+v, want key %+v, first race by t%d, count %d", i, got[i], w.key, w.first, w.count)
		}
		if k := sp.KeyOf(got[i].Race); k != got[i].Key {
			t.Errorf("row %d: key %+v, but its first race keys as %+v", i, got[i].Key, k)
		}
	}
}

// TestTallyMatchesMapOnly checks Tally, which compares each key with
// the rows it touched last before it goes to its map, against a tally
// that looks every key up in the map, row for row: on race lists that
// interleave a few repeated keys with unique keys and with races
// without a site, in runs of every length.
func TestTallyMatchesMapOnly(t *testing.T) {
	mapOnly := func(races []sp.Race) []sp.RaceCount {
		var rows []sp.RaceCount
		index := map[sp.RaceKey]int{}
		for _, r := range races {
			k := sp.KeyOf(r)
			i, ok := index[k]
			if !ok {
				i = len(rows)
				index[k] = i
				rows = append(rows, sp.RaceCount{Key: k, Race: r})
			}
			rows[i].Count++
		}
		return rows
	}
	rng := rand.New(rand.NewSource(1))
	for trial := range 200 {
		races := make([]sp.Race, rng.Intn(300))
		// Repeated key k has kind k%3, first site k%2 and second site
		// k%5, so some pairs differ in one field only; there are more or
		// fewer of them than the rows Tally compares first.
		repeated := 1 + rng.Intn(12)
		for i := 0; i < len(races); {
			run := 1 + rng.Intn(6)
			var r sp.Race
			switch rng.Intn(4) {
			case 0, 1:
				k := rng.Intn(repeated)
				r = sp.Race{Kind: sp.AccessKind(k % 3), FirstSite: fmt.Sprintf("a.go:%d", k%2), SecondSite: fmt.Sprintf("b.go:%d", k%5)}
			case 2:
				r = sp.Race{Kind: sp.WriteWrite, FirstSite: fmt.Sprintf("u.go:%d", i), SecondSite: "b.go:1"}
			default:
				r = sp.Race{Kind: sp.WriteRead, SecondSite: "b.go:1"}
			}
			for ; run > 0 && i < len(races); run-- {
				r.Addr, r.First, r.Second = uint64(rng.Intn(3)), sp.ThreadID(2*i), sp.ThreadID(2*i+1)
				races[i] = r
				i++
			}
		}
		if got, want := sp.Tally(races), mapOnly(races); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %d races tally to %d rows, want %d:\n%+v\nwant\n%+v", trial, len(races), len(got), len(want), got, want)
		}
	}
}
