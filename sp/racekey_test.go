package sp_test

import (
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
