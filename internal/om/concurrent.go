package om

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/paged"
)

// CItem is an element of a Concurrent order-maintenance list. Its local
// label and bucket pointer are read lock-free by queries and written only
// while the list's insertion lock is held.
type CItem struct {
	label atomic.Uint64
	bkt   atomic.Pointer[cbucket]

	// prev/next link the items of one bucket; only touched under the
	// list lock.
	prev, next *CItem
}

// cbucket is a bottom-level group of at most bucketCap consecutive items
// of a Concurrent list. Its label orders it in the top-level list, and its
// timestamp validates lock-free reads of both its own label and its
// items' local labels.
type cbucket struct {
	label atomic.Uint64
	ts    atomic.Uint64

	// The rest is only touched under the list lock.
	prev, next *cbucket
	head, tail *CItem
	n          int
}

// Concurrent is the order-maintenance structure of SP-hybrid's global tier
// (Section 4 of the paper): insertions serialize on a single lock, while
// OM-PRECEDES queries run lock-free, validating their reads against
// timestamps and retrying if a concurrent rebalance invalidated them.
//
// It has the two levels of the serial List. Items live in buckets of at
// most bucketCap consecutive items and carry local labels; buckets carry
// labels in a top-level list. Items in different buckets compare by
// bucket label, items in one bucket by local label. An insertion that
// finds no free local label relabels its bucket's items evenly; one that
// finds its bucket full first splits it: a new bucket is labeled right
// after it at the top level, and the upper half of the items move into
// it, the last item first, with one atomic store of the bucket pointer
// each and their local labels kept. At every instant the old bucket holds
// a prefix and the new one a suffix, so no query sees the order change.
// Splits make the top-level list O(n/bucketCap) long, which is what takes
// the rebalance cost per insertion from O(log n) to O(1) amortized.
//
// Both kinds of relabeling, of the buckets in a top-level label range and
// of one bucket's items, use the paper's five passes:
//
//  1. determine the range to relabel;
//  2. increment the timestamp of every bucket involved;
//  3. assign each element its minimum possible label, smallest to largest
//     (labels only move down, so relative order is preserved);
//  4. increment the timestamps again;
//  5. assign final labels, largest to smallest (labels only move up).
//
// A query reads both items' bucket pointers, then the timestamp of x's
// bucket, then the two labels it compares (the bucket labels, or the local
// labels when both items share a bucket), then x's side of that pair
// again, then the timestamp and both bucket pointers again, and retries on
// any change. The answer is sound because:
//
//   - an item only ever moves into a freshly created bucket, so equal
//     bucket pointers at both ends mean each item stayed in its bucket
//     for the whole query;
//   - every relabeling bumps the timestamps of the buckets it touches
//     before each pass that stores labels, so with an unchanged timestamp
//     x's side was stored at most once while the query ran, and reading
//     the same value twice means it held that value when y's side was
//     read;
//   - the five passes preserve the order of labels at every instant, so
//     the two labels, both held at that instant, compare as the items do.
type Concurrent struct {
	mu    *sync.Mutex
	front *cbucket
	n     int
	// items holds the list's items in insertion order, in pages carved
	// under the insertion lock: an insertion allocates no object of its
	// own.
	items paged.Pages[CItem]

	// QueryRetries counts failed query attempts that had to retry
	// (bucket B5 of the paper's Theorem 10 accounting). Relabels counts
	// labels rewritten to make room: items relabeled within their bucket,
	// items moved to a new bucket by a split, and buckets relabeled at
	// the top level. Rebalances counts relabelings: of one bucket's
	// items, or of a range of buckets.
	QueryRetries atomic.Int64
	Relabels     atomic.Int64
	Rebalances   atomic.Int64
}

// NewConcurrent returns an empty concurrent order-maintenance list with
// its own private insertion lock.
func NewConcurrent() *Concurrent { return &Concurrent{mu: &sync.Mutex{}} }

// NewConcurrentShared returns an empty concurrent order-maintenance list
// whose insertions serialize on the caller-supplied lock. SP-hybrid's
// global tier shares ONE insertion lock between its English and Hebrew
// lists (the paper's Figure 8 acquires a single lock around both
// OM-MULTI-INSERTs), so a structural event batches all of its insertions
// — in both orders — under a single acquisition via the *Locked
// variants. Queries remain lock-free either way.
func NewConcurrentShared(mu *sync.Mutex) *Concurrent { return &Concurrent{mu: mu} }

// Lock acquires the list's insertion lock for a batch of *Locked calls.
// Lists created by NewConcurrentShared share the lock, so locking one of
// them covers insertions into all of them.
func (c *Concurrent) Lock() { c.mu.Lock() }

// Unlock releases the insertion lock taken by Lock.
func (c *Concurrent) Unlock() { c.mu.Unlock() }

// Len returns the number of items (taking the lock; intended for tests
// and reporting, not hot paths).
func (c *Concurrent) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// InsertFirst inserts and returns the first item of an empty list.
func (c *Concurrent) InsertFirst() *CItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.InsertFirstLocked()
}

// InsertFirstLocked is InsertFirst for callers already holding the
// insertion lock (Lock).
func (c *Concurrent) InsertFirstLocked() *CItem {
	if c.n != 0 {
		panic("om: InsertFirst on non-empty Concurrent list")
	}
	b := &cbucket{n: 1}
	b.label.Store(1 << (topUniverseBits - 1))
	it := c.items.New()
	it.label.Store(math.MaxUint64 / 2)
	it.bkt.Store(b)
	b.head, b.tail = it, it
	c.front = b
	c.n = 1
	return it
}

// InsertAfter inserts a new item immediately after x and returns it.
func (c *Concurrent) InsertAfter(x *CItem) *CItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertAfterLocked(x)
}

// InsertAfterLocked is InsertAfter for callers already holding the
// insertion lock (Lock).
func (c *Concurrent) InsertAfterLocked(x *CItem) *CItem { return c.insertAfterLocked(x) }

// InsertBefore inserts a new item immediately before x and returns it.
func (c *Concurrent) InsertBefore(x *CItem) *CItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertBeforeLocked(x)
}

// MultiInsertAround performs the paper's OM-MULTI-INSERT: it inserts the
// items before[0..] immediately before u (in order) and after[0..]
// immediately after u (in order), all under a single lock acquisition, and
// returns the newly created items. With before = {A, B} and after = {C, D}
// the resulting order is A, B, u, C, D — matching
// OM-MULTI-INSERT(L, A, B, U, C, D) in Figure 8.
func (c *Concurrent) MultiInsertAround(u *CItem, nBefore, nAfter int) (before, after []*CItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.MultiInsertAroundLocked(u, nBefore, nAfter)
}

// MultiInsertAroundLocked is MultiInsertAround for callers already
// holding the insertion lock (Lock): lists sharing one lock batch the
// English and Hebrew insertions of a structural event under a single
// acquisition, as in Figure 8.
func (c *Concurrent) MultiInsertAroundLocked(u *CItem, nBefore, nAfter int) (before, after []*CItem) {
	before = make([]*CItem, nBefore)
	after = make([]*CItem, nAfter)
	// Insert the "before" items left to right: each is inserted
	// immediately before u, so earlier ones end up leftmost.
	for i := range before {
		before[i] = c.insertBeforeLocked(u)
	}
	prev := u
	for i := range after {
		prev = c.insertAfterLocked(prev)
		after[i] = prev
	}
	return before, after
}

func (c *Concurrent) insertAfterLocked(x *CItem) *CItem {
	for {
		b := x.bkt.Load()
		if b.n >= bucketCap {
			c.split(b)
			continue
		}
		lo := x.label.Load()
		hi := uint64(math.MaxUint64)
		if x.next != nil {
			hi = x.next.label.Load()
		}
		if hi-lo < 2 {
			c.relabelBucket(b)
			continue
		}
		it := c.items.New()
		it.prev, it.next = x, x.next
		it.label.Store(lo + (hi-lo)/2)
		it.bkt.Store(b)
		if x.next != nil {
			x.next.prev = it
		} else {
			b.tail = it
		}
		x.next = it
		b.n++
		c.n++
		return it
	}
}

func (c *Concurrent) insertBeforeLocked(x *CItem) *CItem {
	for {
		if x.prev != nil {
			return c.insertAfterLocked(x.prev)
		}
		// x heads its bucket: use the local labels below it.
		b := x.bkt.Load()
		if b.n >= bucketCap {
			c.split(b)
			continue
		}
		if x.label.Load() < 2 {
			c.relabelBucket(b)
			continue
		}
		it := c.items.New()
		it.next = x
		it.label.Store(x.label.Load() / 2)
		it.bkt.Store(b)
		x.prev = it
		b.head = it
		b.n++
		c.n++
		return it
	}
}

// split moves the upper half of b's items into a new bucket linked right
// after b. Items move last first and keep their local labels, so b always
// holds a prefix and the new bucket a suffix of the order. Caller holds
// c.mu.
func (c *Concurrent) split(b *cbucket) {
	nb := c.insertBucketAfter(b)
	moved := b.n - b.n/2
	it := b.tail
	for k := 0; k < moved; k++ {
		it.bkt.Store(nb)
		it = it.prev
	}
	nb.head, nb.tail, nb.n = it.next, b.tail, moved
	nb.head.prev = nil
	it.next = nil
	b.tail = it
	b.n -= moved
	c.Relabels.Add(int64(moved))
}

// insertBucketAfter links and returns a new, empty bucket labeled between
// b and its successor, rebalancing the top level when they are adjacent.
// The bucket stays invisible to queries until an item moves into it.
func (c *Concurrent) insertBucketAfter(b *cbucket) *cbucket {
	for {
		lo := b.label.Load()
		hi := uint64(1) << topUniverseBits
		if b.next != nil {
			hi = b.next.label.Load()
		}
		if hi-lo < 2 {
			c.rebalanceTop(b)
			continue
		}
		nb := &cbucket{prev: b, next: b.next}
		nb.label.Store(lo + (hi-lo)/2)
		if b.next != nil {
			b.next.prev = nb
		}
		b.next = nb
		return nb
	}
}

// relabelBucket spreads b's items evenly over the local label universe,
// in passes 2–5.
func (c *Concurrent) relabelBucket(b *cbucket) {
	c.Rebalances.Add(1)
	b.ts.Add(1)
	// Pass 3: item j gets label j. The old labels are distinct and
	// increasing from 0 up, so item j's is at least j.
	j := uint64(0)
	for it := b.head; it != nil; it = it.next {
		it.label.Store(j)
		j++
	}
	b.ts.Add(1)
	// Pass 5: item j gets (j+1)·gap ≥ j, the last item first.
	gap := math.MaxUint64 / uint64(b.n+1)
	lab := uint64(b.n) * gap
	for it := b.tail; it != nil; it = it.prev {
		it.label.Store(lab)
		lab -= gap
	}
	c.Relabels.Add(int64(b.n))
}

// rebalanceTop relabels a range of buckets around b. Pass 1 grows
// power-of-two aligned label ranges around b until one holds few enough
// buckets, under the density threshold (T/2)^i of the serial list's top
// level. Caller holds c.mu.
func (c *Concurrent) rebalanceTop(b *cbucket) {
	c.Rebalances.Add(1)
	for i := uint(1); i <= topUniverseBits; i++ {
		size := uint64(1) << i
		mask := size - 1
		lo := b.label.Load() &^ mask
		hi := lo + mask
		first := b
		for first.prev != nil && first.prev.label.Load() >= lo {
			first = first.prev
		}
		count := 0
		last := first
		for bb := first; bb != nil && bb.label.Load() <= hi; bb = bb.next {
			count++
			last = bb
		}
		thresh := float64(size) * math.Pow(overflowT/2, float64(i))
		if float64(count+1) > thresh && i < topUniverseBits {
			continue
		}
		gap := size / uint64(count+1)
		if gap < 2 {
			if i == topUniverseBits {
				panic("om: concurrent label universe exhausted")
			}
			continue
		}
		c.relabelBuckets(first, last, lo, gap)
		return
	}
	panic("om: unreachable")
}

// relabelBuckets performs passes 2–5 on the buckets first..last, assigning
// final labels lo+gap, lo+2·gap, … .
func (c *Concurrent) relabelBuckets(first, last *cbucket, lo, gap uint64) {
	for bb := first; bb != last.next; bb = bb.next {
		bb.ts.Add(1)
	}
	// Pass 3: bucket j gets lo + j. The old labels are distinct and
	// increasing within [lo, hi], so bucket j's is at least lo + j.
	j := uint64(0)
	for bb := first; bb != last.next; bb = bb.next {
		bb.label.Store(lo + j)
		j++
	}
	for bb := first; bb != last.next; bb = bb.next {
		bb.ts.Add(1)
	}
	c.Relabels.Add(int64(j))
	// Pass 5: bucket j gets lo + (j+1)·gap ≥ lo + j, the last bucket
	// first.
	for bb := last; bb != first.prev; bb = bb.prev {
		bb.label.Store(lo + j*gap)
		j--
	}
}

// Precedes reports whether x strictly precedes y, without locking. It
// reads the two labels that decide the order, the buckets' labels or the
// local labels of items sharing a bucket, then rereads x's side, the
// timestamp of x's bucket and both bucket pointers, and retries when any
// of them changed (see Concurrent for why that suffices).
func (c *Concurrent) Precedes(x, y *CItem) bool {
	if x == y {
		return false
	}
	// Two copies of the check rather than one through pointers to the
	// chosen labels: the indirection cost about 1 ns a query.
	for {
		bx, by := x.bkt.Load(), y.bkt.Load()
		if bx != by {
			ts := bx.ts.Load()
			vx := bx.label.Load()
			vy := by.label.Load()
			if bx.label.Load() == vx && bx.ts.Load() == ts && x.bkt.Load() == bx && y.bkt.Load() == by {
				return vx < vy
			}
		} else {
			ts := bx.ts.Load()
			vx := x.label.Load()
			vy := y.label.Load()
			if x.label.Load() == vx && bx.ts.Load() == ts && x.bkt.Load() == bx && y.bkt.Load() == by {
				return vx < vy
			}
		}
		c.QueryRetries.Add(1)
	}
}

// Items returns the items in order (takes the lock; for tests).
func (c *Concurrent) Items() []*CItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*CItem, 0, c.n)
	for b := c.front; b != nil; b = b.next {
		for it := b.head; it != nil; it = it.next {
			out = append(out, it)
		}
	}
	return out
}

// checkInvariants verifies that bucket labels and, within each bucket,
// item labels strictly increase, and that the bucket links and counts
// agree; tests call it via the export_test shim.
func (c *Concurrent) checkInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	count := 0
	var prevBucket *cbucket
	for b := c.front; b != nil; b = b.next {
		if b.prev != prevBucket || (prevBucket != nil && b.label.Load() <= prevBucket.label.Load()) {
			return errLabelsOutOfOrder
		}
		if b.n == 0 || b.n > bucketCap {
			return errCountMismatch
		}
		bn := 0
		var prev *CItem
		for it := b.head; it != nil; it = it.next {
			if it.bkt.Load() != b || it.prev != prev || (prev != nil && it.label.Load() <= prev.label.Load()) {
				return errLabelsOutOfOrder
			}
			prev = it
			bn++
		}
		if bn != b.n || prev != b.tail {
			return errCountMismatch
		}
		count += bn
		prevBucket = b
	}
	if count != c.n {
		return errCountMismatch
	}
	return nil
}
