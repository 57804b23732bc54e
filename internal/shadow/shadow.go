// Package shadow implements the Nondeterminator shadow-memory protocol
// (Feng–Leiserson 1997) shared by every race-detection frontend in this
// repository: each shared-memory location keeps its last writer and one
// reader, and the reader is replaced only when the new reader is serially
// after the old one. This guarantees that a race is reported for a
// location if and only if some race exists on that location, provided the
// backing SP-maintenance structure answers precedes/parallel queries
// correctly.
//
// The protocol is generic over the accessor identity A so that the
// tree-replay detectors (internal/race, A = *spt.Node) and the
// event-driven monitor (package sp, A = sp.ThreadID) share one
// implementation instead of the per-backend replay loops the repository
// used to duplicate.
//
// Shadow state is sharded: Memory hashes each address onto one of N
// power-of-two shards, and a shard is the one home of its addresses'
// detector state under its one mutex: their cells, the counts of the
// accesses applied to them, and whatever the caller keeps beside the
// cells (sp.Monitor keeps its ALL-SETS histories and race log there).
// Memory is the only place that maps an address to a shard. Parallel
// accessors of distinct addresses therefore touch disjoint locks with
// high probability, which is what lets a lock-free sp.Monitor's
// accesses scale — an access takes the owning shard's lock, once, and
// never a global structure (the partitioned detector-state idea of
// Utterback et al.'s future-aware race detection, applied to fork-join
// shadow memory).
package shadow

import (
	"fmt"
	"sync"

	"repro/internal/paged"
)

// AccessKind distinguishes the two accesses of a reported race.
type AccessKind uint8

const (
	// WriteWrite: both accesses are writes.
	WriteWrite AccessKind = iota
	// WriteRead: the earlier access is a write, the later a read.
	WriteRead
	// ReadWrite: the earlier access is a read, the later a write.
	ReadWrite
)

// String names the access pattern.
func (k AccessKind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case WriteRead:
		return "write-read"
	case ReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Relative answers SP queries of a previous accessor against the
// currently executing accessor. Orders reads the two total orders
// behind the SP relation: the English (serial depth-first) order and
// the Hebrew (spawn-swapped) order. prev ≺ current iff prev is before
// it in both, and prev ∥ current iff the orders disagree (Lemma 1 of
// the SP-order paper). The protocols read Orders to choose the readers
// a cell retains, and ask ParallelCurrent for every race check, so an
// implementation may order more pairs there than the two orders do (as
// a monitor layering sync-object edges over the SP relation does).
type Relative[A comparable] interface {
	// ParallelCurrent reports prev ∥ current.
	ParallelCurrent(prev A) bool
	// Orders reports prev <_E current and prev <_H current.
	Orders(prev A) (english, hebrew bool)
}

// Cell is one shadow-memory slot: the location's last writer plus the
// retained readers, each with an optional user site (e.g. the source
// thread of a replayed trace) carried into race reports. The serial
// protocol (OnAccess) keeps one reader; the ordered protocol
// (OnAccessOrdered) keeps the English-max and Hebrew-max readers. A
// cell is only ever driven by one protocol.
type Cell[A comparable] struct {
	hasWriter, hasReader bool
	writer, reader       A
	writerSite           any
	readerSite           any
	// Second reader slot of the ordered protocol: reader holds the
	// English-max reader there, readerH the Hebrew-max.
	hasReaderH  bool
	readerH     A
	readerHSite any
}

// Found reports the race detected by one application of the protocol.
// The protocol returns it by value with an ok flag, so detecting a race
// allocates nothing.
type Found[A comparable] struct {
	Kind     AccessKind
	Prev     A
	PrevSite any
}

// OnAccess applies the Nondeterminator protocol for one access by cur
// (with optional site metadata). It returns the race found and true, if
// any, and adds the number of SP queries issued to *queries. The caller
// must hold the cell's shard lock when accessors run concurrently.
func OnAccess[A comparable](c *Cell[A], rel Relative[A], cur A, site any, write bool, queries *int64) (found Found[A], ok bool) {
	if write {
		if c.hasWriter && c.writer != cur {
			*queries++
			if rel.ParallelCurrent(c.writer) {
				found, ok = Found[A]{Kind: WriteWrite, Prev: c.writer, PrevSite: c.writerSite}, true
			}
		}
		if !ok && c.hasReader && c.reader != cur {
			*queries++
			if rel.ParallelCurrent(c.reader) {
				found, ok = Found[A]{Kind: ReadWrite, Prev: c.reader, PrevSite: c.readerSite}, true
			}
		}
		c.hasWriter = true
		c.writer, c.writerSite = cur, site
		return found, ok
	}
	// Read access.
	if c.hasWriter && c.writer != cur {
		*queries++
		if rel.ParallelCurrent(c.writer) {
			found, ok = Found[A]{Kind: WriteRead, Prev: c.writer, PrevSite: c.writerSite}, true
		}
	}
	// Keep the old reader unless it serially precedes the new one.
	if !c.hasReader {
		c.hasReader = true
		c.reader, c.readerSite = cur, site
	} else if c.reader != cur {
		*queries++
		if english, hebrew := rel.Orders(c.reader); english && hebrew {
			c.reader, c.readerSite = cur, site
		}
	}
	return found, ok
}

// OnAccessOrdered applies the two-reader variant of the protocol: the
// cell keeps its last writer plus the English-maximal and
// Hebrew-maximal readers. Unlike the one-reader discipline — whose
// completeness proof needs the serial depth-first execution order —
// this variant flags every racy location under ANY feasible
// (creation-respecting) execution order, which is what a live
// concurrent monitor observes:
//
//   - Writes: consecutive writers in execution order are either
//     serial (and then, by transitivity, totally ordered) or a
//     detected race, so a location with a write-write race is always
//     flagged.
//   - A write W racing some past reader s satisfies either s <_E W ∧
//     W <_H s — then the Hebrew-max reader Rh has W <_H s ≤_H Rh, and
//     feasibility (¬ W ≺ Rh) forces Rh <_E W, so W ∥ Rh — or the
//     symmetric case, caught by the English-max reader.
//   - A read racing a past write is caught via the writer slot or
//     subsumed by a write-write race on the same location.
//
// The caller must hold the cell's shard lock when accessors run
// concurrently, and rel's orders must be exact for every pair of
// accessors it is asked about. Each retention check reads one bit of
// its own Orders call and counts as one query.
func OnAccessOrdered[A comparable](c *Cell[A], rel Relative[A], cur A, site any, write bool, queries *int64) (found Found[A], ok bool) {
	if write {
		if c.hasWriter && c.writer != cur {
			*queries++
			if rel.ParallelCurrent(c.writer) {
				found, ok = Found[A]{Kind: WriteWrite, Prev: c.writer, PrevSite: c.writerSite}, true
			}
		}
		if !ok && c.hasReader && c.reader != cur {
			*queries++
			if rel.ParallelCurrent(c.reader) {
				found, ok = Found[A]{Kind: ReadWrite, Prev: c.reader, PrevSite: c.readerSite}, true
			}
		}
		if !ok && c.hasReaderH && c.readerH != cur && c.readerH != c.reader {
			*queries++
			if rel.ParallelCurrent(c.readerH) {
				found, ok = Found[A]{Kind: ReadWrite, Prev: c.readerH, PrevSite: c.readerHSite}, true
			}
		}
		c.hasWriter = true
		c.writer, c.writerSite = cur, site
		return found, ok
	}
	// Read access.
	if c.hasWriter && c.writer != cur {
		*queries++
		if rel.ParallelCurrent(c.writer) {
			found, ok = Found[A]{Kind: WriteRead, Prev: c.writer, PrevSite: c.writerSite}, true
		}
	}
	// English-max reader (held in the primary reader slot).
	if !c.hasReader {
		c.hasReader = true
		c.reader, c.readerSite = cur, site
	} else if c.reader != cur {
		*queries++
		if english, _ := rel.Orders(c.reader); english {
			c.reader, c.readerSite = cur, site
		}
	}
	// Hebrew-max reader.
	if !c.hasReaderH {
		c.hasReaderH = true
		c.readerH, c.readerHSite = cur, site
	} else if c.readerH != cur {
		*queries++
		if _, hebrew := rel.Orders(c.readerH); hebrew {
			c.readerH, c.readerHSite = cur, site
		}
	}
	return found, ok
}

// Shard is one address-hashed partition of a Memory: the cells of its
// addresses, the counts of the accesses applied to them, and the
// caller's state X for them, all under the shard's one mutex. Accessors
// of addresses in different shards never contend.
type Shard[A comparable, X any] struct {
	mu    sync.Mutex
	cells map[uint64]*Cell[A]
	// pages hold the shard's cells, so a first access to an address
	// allocates no cell of its own. They start at one cell and double,
	// so a shard that sees few addresses stays small.
	pages paged.Pages[Cell[A]]
	// Hits and Queries count the accesses applied on the shard and the
	// SP queries they issued. AccessOrdered counts its own; a caller that
	// runs another protocol under the lock counts its accesses here too.
	Hits, Queries int64
	// The shard's own fields fill one 64-byte cache line (mutex 8B + map
	// header 8B + page list 24B + two counts 16B + 8B pad), so a shard
	// fills whole lines, and hot shard locks do not false-share, when
	// X's size is a multiple of 64.
	_ [8]byte
	// X is the caller's state for the shard's addresses, such as the
	// races found at them: read and write it only under the lock.
	X X
}

// Unlock releases the shard's lock.
func (s *Shard[A, X]) Unlock() { s.mu.Unlock() }

// AccessOrdered applies the two-reader ordered protocol
// (OnAccessOrdered), which stays complete under concurrent, merely
// creation-respecting execution orders, for one access by cur at addr,
// which must hash to this shard. The caller holds the shard's lock. It
// returns the race found and true, if any, and counts the access and
// the SP queries it issued in Hits and Queries. rel is queried under
// the lock, so it must be safe to call concurrently with SP-structure
// updates when accessors are parallel.
func (s *Shard[A, X]) AccessOrdered(addr uint64, rel Relative[A], cur A, site any, write bool) (Found[A], bool) {
	c := s.cells[addr]
	if c == nil {
		c = s.pages.New()
		s.cells[addr] = c
	}
	s.Hits++
	return OnAccessOrdered(c, rel, cur, site, write, &s.Queries)
}

// Memory is a sharded shadow-memory table keyed by location address.
// Each address belongs to exactly one shard, and an access holds only
// that shard's lock, for its cell and for whatever the caller keeps in
// the shard's X. Serial detectors pay one uncontended lock per access.
type Memory[A comparable, X any] struct {
	mask   uint64
	shards []Shard[A, X]
}

// NewMemory returns an empty shadow memory with at least the given
// number of shards, rounded up to a power of two (minimum 1). Each
// shard's X starts as its zero value.
func NewMemory[A comparable, X any](shards int) *Memory[A, X] {
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Memory[A, X]{mask: uint64(n - 1), shards: make([]Shard[A, X], n)}
	for i := range m.shards {
		m.shards[i].cells = map[uint64]*Cell[A]{}
	}
	return m
}

// NumShards returns the shard count (a power of two).
func (m *Memory[A, X]) NumShards() int { return len(m.shards) }

// Lock locks and returns the shard owning addr. Addresses are mixed
// before masking so that adjacent addresses — the common layout of
// program data — land on different shards.
func (m *Memory[A, X]) Lock(addr uint64) *Shard[A, X] { return m.LockShard(int(mix(addr) & m.mask)) }

// LockShard locks and returns shard i, for a reader of every shard,
// such as a report.
func (m *Memory[A, X]) LockShard(i int) *Shard[A, X] {
	s := &m.shards[i]
	s.mu.Lock()
	return s
}

// mix is the splitmix64 finalizer: an invertible bit mixer that spreads
// consecutive addresses across the whole hash space, so shard selection
// is balanced even for the dense, small address ranges tests and
// replayed traces use.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
