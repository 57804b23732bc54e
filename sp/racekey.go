package sp

import (
	"fmt"
	"strconv"
)

// RaceKey identifies a race by where it happens rather than by which
// threads took part: the two access sites and the access pattern. A side
// without a site falls back to the raced address, so site-less races
// still group per location.
type RaceKey struct {
	Kind   AccessKind
	First  string
	Second string
}

// SiteOf renders one side of a race as a key site: a non-empty string
// site as it is, any other site through fmt.Sprint, and "x<addr>" when
// the access has no site or it renders empty.
func SiteOf(site any, addr uint64) string {
	s, ok := site.(string)
	if !ok && site != nil {
		s = fmt.Sprint(site)
	}
	if s != "" {
		return s
	}
	return "x" + strconv.FormatUint(addr, 10)
}

// KeyOf computes the key of a detected race.
func KeyOf(r Race) RaceKey {
	return RaceKey{Kind: r.Kind, First: SiteOf(r.FirstSite, r.Addr), Second: SiteOf(r.SecondSite, r.Addr)}
}

// RaceCount is one row of a race tally: every race sharing a key.
type RaceCount struct {
	Key RaceKey
	// Race is the first race with this key in the tallied order.
	Race Race
	// Count is the number of races with this key.
	Count int64
}

// tallyRecent is how many of the rows it touched last Tally compares a
// key with before it hashes the key.
const tallyRecent = 4

// Tally groups races by KeyOf, one row per key in the order each key
// first appears. The counts sum to len(races). A racy loop logs the
// same few keys over and over, so Tally first compares a key with the
// last tallyRecent rows it reached through its map, which costs at most
// two string comparisons a row where a map lookup hashes both strings.
func Tally(races []Race) []RaceCount {
	var rows []RaceCount
	index := map[RaceKey]int{}
	var recent [tallyRecent]int // row positions, filled round-robin
	filled, next := 0, 0
	for _, r := range races {
		k := KeyOf(r)
		i := -1
		for _, j := range recent[:filled] {
			if rows[j].Key == k {
				i = j
				break
			}
		}
		if i < 0 {
			var ok bool
			if i, ok = index[k]; !ok {
				i = len(rows)
				index[k] = i
				rows = append(rows, RaceCount{Key: k, Race: r})
			}
			recent[next] = i
			next = (next + 1) % tallyRecent
			filled = min(filled+1, tallyRecent)
		}
		rows[i].Count++
	}
	return rows
}
