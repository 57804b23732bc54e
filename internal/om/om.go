// Package om implements order-maintenance data structures: dynamic linear
// orders supporting OM-INSERT (insert an element immediately after or
// before an existing one) and OM-PRECEDES (does X precede Y?).
//
// Two implementations are provided, matching the two uses in Bender,
// Fineman, Gilbert & Leiserson (SPAA 2004):
//
//   - List: a serial two-level structure with amortized O(1) insertion and
//     worst-case O(1) queries, in the style of Dietz–Sleator and of Bender,
//     Cole, Demaine, Farach-Colton & Zito (ESA 2002). It backs the serial
//     SP-order algorithm (Section 2 of the paper).
//
//   - Concurrent: the same two levels with a global insertion lock and
//     lock-free, timestamp-validated queries. Relabeling, of a range of
//     buckets or of one bucket's items, follows the paper's five-pass
//     rebalance (Section 4), and a full bucket splits by moving its upper
//     half into a new bucket with one atomic pointer store per item, so
//     the relative order of items never changes mid-update. A query
//     rereads what it compared and retries on any change; items only move
//     into fresh buckets, so an unchanged bucket pointer proves the item
//     stayed put. It backs SP-hybrid's global tier with amortized O(1)
//     insertion, where the paper's footnote 3 settles for one level.
package om

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/paged"
)

// bucketCap is the maximum number of items a bottom-level bucket holds
// before it splits. It plays the role of Θ(lg n) in the classical
// structure; a fixed 64 keeps splits rare for any input this repository
// can hold in memory while keeping relabels cheap.
const bucketCap = 64

// topUniverseBits is the size of the label universe for the top-level
// (bucket) labels. Leaving headroom below 2^64 simplifies gap arithmetic.
const topUniverseBits = 62

// overflowT is the parameter T ∈ (1,2) of the threshold relabeling rule: a
// label range of size 2^i overflows when it holds more than (2/T)^i items.
const overflowT = 1.5

// Item is an element of a List. Items are created only by the List's
// insert methods. The zero Item is not valid.
type Item struct {
	label      uint64
	prev, next *Item
	bkt        *bucket
}

// bucket is a bottom-level group of items sharing a top-level label.
type bucket struct {
	label      uint64
	prev, next *bucket
	head       *Item
	n          int
}

// List is a serial order-maintenance structure with amortized O(1)
// insertion and O(1) worst-case queries. It is not safe for concurrent
// use; see Concurrent for the lock-free-query variant.
type List struct {
	front  *bucket
	nItems int
	// items holds the list's items in insertion order, in pages: an
	// insertion allocates no object of its own.
	items paged.Pages[Item]

	// Relabels counts item-relabel events (for the amortized-cost
	// benchmarks); Splits counts bucket splits; TopRelabels counts
	// top-level relabeled buckets.
	Relabels    int64
	Splits      int64
	TopRelabels int64
}

// NewList returns an empty list.
func NewList() *List { return &List{} }

// Len returns the number of items in the list.
func (l *List) Len() int { return l.nItems }

// InsertFirst inserts and returns the first item of an empty list. It
// panics if the list is not empty; use InsertAfter/InsertBefore thereafter.
func (l *List) InsertFirst() *Item {
	if l.nItems != 0 {
		panic("om: InsertFirst on non-empty list")
	}
	b := &bucket{label: 1 << (topUniverseBits - 1)}
	it := l.items.Append(Item{label: math.MaxUint64 / 2, bkt: b})
	b.head, b.n = it, 1
	l.front, l.nItems = b, 1
	return it
}

// InsertAfter inserts a new item immediately after x and returns it.
func (l *List) InsertAfter(x *Item) *Item {
	if x == nil {
		panic("om: InsertAfter(nil)")
	}
	for {
		b := x.bkt
		if b.n >= bucketCap {
			l.splitBucket(b)
			continue
		}
		var lo, hi uint64
		lo = x.label
		if x.next != nil {
			hi = x.next.label
		} else {
			hi = math.MaxUint64
		}
		if hi-lo < 2 {
			// No integer strictly between lo and hi: relabel the
			// bucket evenly and retry.
			l.relabelBucket(b)
			continue
		}
		it := l.items.Append(Item{label: lo + (hi-lo)/2, bkt: b, prev: x, next: x.next})
		if x.next != nil {
			x.next.prev = it
		}
		x.next = it
		b.n++
		l.nItems++
		return it
	}
}

// InsertBefore inserts a new item immediately before x and returns it.
func (l *List) InsertBefore(x *Item) *Item {
	if x == nil {
		panic("om: InsertBefore(nil)")
	}
	for {
		b := x.bkt
		if x.prev != nil {
			return l.InsertAfter(x.prev)
		}
		if b.n >= bucketCap {
			l.splitBucket(b)
			continue
		}
		// x is the first item of its bucket: insert in [0, x.label).
		if x.label < 2 {
			l.relabelBucket(b)
			continue
		}
		it := l.items.Append(Item{label: x.label / 2, bkt: b, next: x})
		x.prev = it
		b.head = it
		b.n++
		l.nItems++
		return it
	}
}

// Precedes reports whether x comes strictly before y in the list's order.
// Both items must belong to this list. Precedes(x, x) is false.
func (l *List) Precedes(x, y *Item) bool {
	if x.bkt != y.bkt {
		return x.bkt.label < y.bkt.label
	}
	return x.label < y.label
}

// relabelBucket spreads b's items evenly over the full item-label
// universe.
func (l *List) relabelBucket(b *bucket) {
	gap := math.MaxUint64/uint64(b.n+1) - 1
	lab := gap
	for it := b.head; it != nil; it = it.next {
		it.label = lab
		lab += gap
		l.Relabels++
	}
}

// splitBucket splits a full bucket into two halves and inserts the second
// half as a fresh bucket immediately after b in the top-level list,
// relabeling the top level if necessary.
func (l *List) splitBucket(b *bucket) {
	l.Splits++
	half := b.n / 2
	// Walk to the split point.
	it := b.head
	for i := 1; i < half; i++ {
		it = it.next
	}
	nb := &bucket{head: it.next, n: b.n - half}
	b.n = half
	it.next.prev = nil
	it.next = nil
	for jt := nb.head; jt != nil; jt = jt.next {
		jt.bkt = nb
	}
	l.insertBucketAfter(b, nb)
	l.relabelBucket(b)
	l.relabelBucket(nb)
}

// insertBucketAfter links nb after b in the top list and assigns it a
// label, relabeling a range of buckets when the local gap is exhausted
// (the threshold rule of Bender et al.).
func (l *List) insertBucketAfter(b, nb *bucket) {
	nb.prev, nb.next = b, b.next
	if b.next != nil {
		b.next.prev = nb
	}
	b.next = nb
	lo := b.label
	var hi uint64
	if nb.next != nil {
		hi = nb.next.label
	} else {
		hi = 1 << topUniverseBits
	}
	if hi-lo >= 2 {
		nb.label = lo + (hi-lo)/2
		return
	}
	l.rebalanceTop(b)
	// After rebalancing, the gap around b is guaranteed; recompute.
	lo = b.label
	if nb.next != nil {
		hi = nb.next.label
	} else {
		hi = 1 << topUniverseBits
	}
	if hi-lo < 2 {
		panic("om: top-level rebalance failed to open a gap")
	}
	nb.label = lo + (hi-lo)/2
}

// rebalanceTop relabels a range of top-level buckets around b. The range
// grows in powers of two until its density falls below the level's
// overflow threshold (density threshold (T/2)^i for a range of size 2^i),
// then the buckets in range are spread evenly. nb (just linked after b,
// still unlabeled) is excluded from counting by treating b's label as its
// stand-in; nb is relabeled by the caller.
func (l *List) rebalanceTop(b *bucket) {
	for i := uint(1); i <= topUniverseBits; i++ {
		size := uint64(1) << i
		mask := size - 1
		lo := b.label &^ mask
		hi := lo + mask
		// Count labeled buckets within [lo, hi], walking out from b.
		// The unlabeled new bucket sits after b and is skipped via
		// its zero n? It has no label yet; we simply don't count it:
		// the walk below counts by label range, and the new bucket's
		// label is stale/unset. We temporarily unlink nothing —
		// instead callers guarantee the unlabeled bucket is b.next;
		// skip exactly that one.
		first := b
		for first.prev != nil && first.prev.label >= lo {
			first = first.prev
		}
		count := 0
		last := first
		for bb := first; bb != nil && (bb == b.next || bb.label <= hi); bb = bb.next {
			if bb == b.next && bb != first {
				continue // the pending, unlabeled bucket
			}
			count++
			last = bb
		}
		thresh := float64(size) * math.Pow(overflowT/2, float64(i))
		if float64(count+1) <= thresh || i == topUniverseBits {
			// Spread count buckets evenly over [lo, hi], leaving
			// room for the pending one.
			gap := size / uint64(count+2)
			if gap == 0 {
				continue
			}
			lab := lo + gap
			for bb := first; ; bb = bb.next {
				if bb != b.next {
					bb.label = lab
					lab += gap
					l.TopRelabels++
				}
				if bb == last {
					break
				}
			}
			return
		}
	}
	panic("om: top-level label universe exhausted")
}

// Items returns the list's items in order (for tests and debugging).
func (l *List) Items() []*Item {
	out := make([]*Item, 0, l.nItems)
	for b := l.front; b != nil; b = b.next {
		for it := b.head; it != nil; it = it.next {
			out = append(out, it)
		}
	}
	return out
}

// checkInvariants validates the structural invariants; tests call it via
// the export_test shim.
func (l *List) checkInvariants() error {
	count := 0
	var prevBucketLabel uint64
	firstBucket := true
	for b := l.front; b != nil; b = b.next {
		if !firstBucket && b.label <= prevBucketLabel {
			return fmt.Errorf("om: bucket labels out of order: %d after %d", b.label, prevBucketLabel)
		}
		firstBucket = false
		prevBucketLabel = b.label
		if b.n == 0 {
			return fmt.Errorf("om: empty bucket present")
		}
		if b.n > bucketCap {
			return fmt.Errorf("om: bucket overfull: %d > %d", b.n, bucketCap)
		}
		bn := 0
		var prevLabel uint64
		firstItem := true
		for it := b.head; it != nil; it = it.next {
			if it.bkt != b {
				return fmt.Errorf("om: item bucket pointer wrong")
			}
			if !firstItem && it.label <= prevLabel {
				return fmt.Errorf("om: item labels out of order in bucket: %d after %d", it.label, prevLabel)
			}
			firstItem = false
			prevLabel = it.label
			bn++
		}
		if bn != b.n {
			return fmt.Errorf("om: bucket count mismatch: %d != %d", bn, b.n)
		}
		count += bn
	}
	if count != l.nItems {
		return fmt.Errorf("om: item count mismatch: %d != %d", count, l.nItems)
	}
	return nil
}

// debugString renders the bucket/label structure for failures.
func (l *List) debugString() string {
	var sb strings.Builder
	for b := l.front; b != nil; b = b.next {
		fmt.Fprintf(&sb, "[%d:", b.label)
		for it := b.head; it != nil; it = it.next {
			fmt.Fprintf(&sb, " %d", it.label)
		}
		sb.WriteString("] ")
	}
	return sb.String()
}
