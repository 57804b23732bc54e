package traced

import (
	"sort"
	"sync"
	"time"

	"repro/internal/paged"
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
// first-seen order. Neither its entries nor its index hold a pointer.
// Each site and stream name that an entry references is interned once
// into names, and each time's location into zones, so an entry is a
// fixed-size record of integers and the collector marks one string per
// distinct name, not the table.
type dedup struct {
	mu      sync.Mutex
	index   map[entryKey]uint32 // position in entries
	entries paged.Pages[entry]
	names   paged.Pages[string] // by name ID
	nameIDs map[string]uint32
	// zones holds the locations of the fold times, by zone ID; zone 0
	// is UTC.
	zones []*time.Location
	folds uint64 // numbers the folds from 1
}

// entryKey is an entry's RaceKey with its sites as name IDs.
type entryKey struct {
	first, second uint32
	kind          sp.AccessKind
}

// entry is one RaceEntry as integers. Its times are Unix nanoseconds
// and a zone ID. lastFold is the number of the last fold that touched
// it, so a stream adds one to streams however many of its races share
// the entry's key.
type entry struct {
	addr                   uint64
	count, streams         int64
	firstSeen, lastSeen    int64
	lastFold               uint64
	first, second, example uint32
	kind                   sp.AccessKind
	firstZone, lastZone    uint8
}

// maxZones bounds the zone table to what an entry's zone ID can name.
const maxZones = 1 << 8

func newDedup() *dedup {
	return &dedup{index: map[entryKey]uint32{}, nameIDs: map[string]uint32{}, zones: []*time.Location{time.UTC}}
}

// noName marks a stream name that Fold has not interned yet.
const noName = ^uint32(0)

// Fold adds one finished stream's races to the table in one pass under
// the table lock. It interns each race's two sites and looks up the
// key they make with the race's kind, once: every race adds one to its
// entry's Count, and the first race of the stream on an entry adds one
// to its Streams and sets its LastSeen. A key seen for the first time
// starts an entry with that race's address, the stream's name and the
// fold time. A site not interned yet always starts an entry, so the
// table interns only names that some entry references, and the
// stream's name only when the stream starts an entry. Folding races
// whose keys are all in the table allocates nothing, unless sp.SiteOf
// must render a side that has no non-empty string site. A report waits
// for the lock at most one pass over one stream's races.
//
// The table keeps at as UnixNano and its location, so the times it
// reports equal at, less its monotonic clock reading, in the years
// UnixNano covers (1678 to 2262). Past 255 locations besides UTC, a
// time in a further one renders in UTC; the server folds at time.Now,
// in one location.
func (d *dedup) Fold(streamName string, races []sp.Race, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.folds++
	seen, zone := at.UnixNano(), d.zone(at.Location())
	example := noName
	for i := range races {
		r := &races[i]
		k := entryKey{first: d.intern(sp.SiteOf(r.FirstSite, r.Addr)), second: d.intern(sp.SiteOf(r.SecondSite, r.Addr)), kind: r.Kind}
		var e *entry
		if j, ok := d.index[k]; ok {
			e = d.entries.At(int(j))
		} else {
			if example == noName {
				example = d.intern(streamName)
			}
			d.index[k] = uint32(d.entries.Len())
			e = d.entries.Append(entry{
				addr: r.Addr, firstSeen: seen, first: k.first, second: k.second,
				example: example, kind: r.Kind, firstZone: zone,
			})
		}
		e.count++
		if e.lastFold != d.folds {
			e.lastFold = d.folds
			e.streams++
			e.lastSeen, e.lastZone = seen, zone
		}
	}
}

// intern returns the name ID of s, adding s to the name table when it
// is new.
func (d *dedup) intern(s string) uint32 {
	if id, ok := d.nameIDs[s]; ok {
		return id
	}
	id := uint32(d.names.Len())
	d.names.Append(s)
	d.nameIDs[s] = id
	return id
}

// zone returns the zone ID of loc, adding it to the zone table while
// the table has room, and UTC's after that.
func (d *dedup) zone(loc *time.Location) uint8 {
	for z, l := range d.zones {
		if l == loc {
			return uint8(z)
		}
	}
	if len(d.zones) == maxZones {
		return 0
	}
	d.zones = append(d.zones, loc)
	return uint8(len(d.zones) - 1)
}

// name returns the name with ID id.
func (d *dedup) name(id uint32) string { return *d.names.At(int(id)) }

// seenAt renders a time the table keeps.
func (d *dedup) seenAt(unixNano int64, zone uint8) time.Time {
	return time.Unix(0, unixNano).In(d.zones[zone])
}

// Unique returns the number of distinct race entries.
func (d *dedup) Unique() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.entries.Len()
}

// Snapshot renders the table in first-seen order.
func (d *dedup) Snapshot() []RaceEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]RaceEntry, 0, d.entries.Len())
	for _, page := range d.entries {
		for i := range page {
			e := &page[i]
			out = append(out, RaceEntry{
				Kind: e.kind.String(), First: d.name(e.first), Second: d.name(e.second),
				Addr: e.addr, Count: e.count, Streams: int(e.streams),
				FirstSeen: d.seenAt(e.firstSeen, e.firstZone), LastSeen: d.seenAt(e.lastSeen, e.lastZone),
				ExampleStream: d.name(e.example),
			})
		}
	}
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
	counts := make([]int64, d.names.Len()) // by name ID
	sites := 0
	add := func(id uint32, n int64) {
		if counts[id] == 0 {
			sites++
		}
		counts[id] += n
	}
	for _, page := range d.entries {
		for _, e := range page {
			add(e.first, e.count)
			if e.second != e.first {
				add(e.second, e.count)
			}
		}
	}
	out := make([]SiteCount, 0, sites)
	for id, c := range counts {
		if c > 0 {
			out = append(out, SiteCount{Site: d.name(uint32(id)), Count: c})
		}
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Site < out[j].Site
	})
	return out
}
