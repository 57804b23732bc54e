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
	// lastFold[i] is the number of the last fold that touched entries[i]
	// (folds counts them from 1), so a stream adds one to an entry's
	// Streams however many of its races share the entry's key.
	lastFold []uint64
	folds    uint64
}

func newDedup() *dedup {
	return &dedup{index: map[RaceKey]int{}}
}

// Fold adds one finished stream's races to the table in one pass under
// the table lock, looking each race's key up once: every race adds one
// to its entry's Count, and the first race of the stream on an entry
// adds one to its Streams and sets its LastSeen. A key seen for the
// first time starts an entry with that race's address, the stream's
// name and the fold time. A report waits for the lock at most one pass
// over one stream's races. Grouping them by key before taking the lock
// would not shorten that pass: on a fleet whose threads each access at
// their own site, a stream has about one key per race.
func (d *dedup) Fold(streamName string, races []sp.Race, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.folds++
	for i := range races {
		k := sp.KeyOf(races[i])
		j, ok := d.index[k]
		if !ok {
			j = len(d.entries)
			d.index[k] = j
			d.entries = append(d.entries, RaceEntry{
				Kind: k.Kind.String(), First: k.First, Second: k.Second,
				Addr: races[i].Addr, FirstSeen: at, ExampleStream: streamName,
			})
			d.lastFold = append(d.lastFold, 0)
		}
		e := &d.entries[j]
		e.Count++
		if d.lastFold[j] != d.folds {
			d.lastFold[j] = d.folds
			e.Streams++
			e.LastSeen = at
		}
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
