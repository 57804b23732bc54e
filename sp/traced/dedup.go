package traced

import (
	"sort"
	"sync"
	"time"

	"repro/sp"
)

// RaceKey identifies one deduplicated race across the fleet (see
// sp.RaceKey): the two access sites and the access pattern, or the
// raced address for a side without a site.
type RaceKey = sp.RaceKey

// KeyOf computes the dedup key of a detected race (sp.KeyOf).
func KeyOf(r sp.Race) RaceKey { return sp.KeyOf(r) }

// RaceEntry is the aggregate of every observation of one RaceKey.
type RaceEntry struct {
	Kind   string `json:"kind"`
	First  string `json:"first"`
	Second string `json:"second"`
	// Addr is the address of the first observation (later observations
	// of the same site pair may race on other addresses).
	Addr uint64 `json:"addr"`
	// Count is the total number of observations fleet-wide.
	Count int64 `json:"count"`
	// Streams counts the streams that observed this race, exactly: a
	// stream folds its races into the table once, when it finishes.
	Streams int `json:"streams"`
	// FirstSeen and LastSeen are the finish times of the first and the
	// latest stream that observed the race.
	FirstSeen time.Time `json:"firstSeen"`
	LastSeen  time.Time `json:"lastSeen"`
	// ExampleStream names the first stream that observed the race.
	ExampleStream string `json:"exampleStream"`
}

// dedup is the fleet-wide race table: one entry per RaceKey, in
// first-seen order.
type dedup struct {
	mu      sync.Mutex
	index   map[RaceKey]int // position in entries
	entries []RaceEntry
}

func newDedup() *dedup {
	return &dedup{index: map[RaceKey]int{}}
}

// Fold adds one finished stream's race tally to the table under one
// lock: each row adds its count to its entry and one to the entry's
// stream count.
func (d *dedup) Fold(streamName string, tally []sp.RaceCount, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, row := range tally {
		i, ok := d.index[row.Key]
		if !ok {
			i = len(d.entries)
			d.index[row.Key] = i
			d.entries = append(d.entries, RaceEntry{
				Kind: row.Key.Kind.String(), First: row.Key.First, Second: row.Key.Second,
				Addr: row.Race.Addr, FirstSeen: at, ExampleStream: streamName,
			})
		}
		e := &d.entries[i]
		e.Count += row.Count
		e.Streams++
		e.LastSeen = at
	}
}

// Unique returns the number of distinct race entries.
func (d *dedup) Unique() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Snapshot copies the table in first-seen order.
func (d *dedup) Snapshot() []RaceEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]RaceEntry, len(d.entries))
	copy(out, d.entries)
	return out
}

// SiteCount is the observation count of one site, for the races-by-site
// rollup.
type SiteCount struct {
	Site  string `json:"site"`
	Count int64  `json:"count"`
}

// BySite rolls the table up per site (both sides of every entry count),
// most-observed first, site name breaking ties.
func (d *dedup) BySite() []SiteCount {
	d.mu.Lock()
	counts := map[string]int64{}
	for _, e := range d.entries {
		counts[e.First] += e.Count
		if e.Second != e.First {
			counts[e.Second] += e.Count
		}
	}
	d.mu.Unlock()
	out := make([]SiteCount, 0, len(counts))
	for s, c := range counts {
		out = append(out, SiteCount{Site: s, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Site < out[j].Site
	})
	return out
}
