// Package paged keeps values in pages that never move, so that a
// pointer to a value stays valid and a new value costs no heap object
// of its own. A page's capacity is fixed when it is allocated: the
// first holds one value, each next one twice its predecessor's, up to
// MaxPage. A short list therefore allocates about what one growing
// slice would, and a long one allocates a page per MaxPage values,
// without ever copying a value it holds.
//
// The race log, the order-maintenance lists' items and the shadow
// memory's cells are carved from Pages. Since every page's capacity
// follows from its position, Pages also finds a value by its index in
// O(1): the race log's lock-set pairs, the trace decoder's site table
// and sptraced's fleet table are Pages read that way.
package paged

import "math/bits"

// MaxPage is the capacity that page capacities double up to.
const MaxPage = 1 << pageBits

// pageBits is log2(MaxPage).
const pageBits = 9

// Pages is a list of values in pages. The zero value is empty and ready
// to use. Pages is not safe for concurrent use; a reader that does not
// hold the writer's lock may read a copy of the page headers, taken
// under it, since a later New or Append writes only past the lengths
// the copy holds.
type Pages[T any] [][]T

// New adds a zero value at the end of the list and returns a pointer to
// it, valid for as long as the list or the pointer is reachable.
func (p *Pages[T]) New() *T {
	pages := *p
	last := len(pages) - 1
	if last < 0 || len(pages[last]) == cap(pages[last]) {
		size := 1
		if last >= 0 {
			size = min(2*cap(pages[last]), MaxPage)
		}
		pages = append(pages, make([]T, 0, size))
		last++
		*p = pages
	}
	n := len(pages[last])
	pages[last] = pages[last][:n+1]
	return &pages[last][n]
}

// Append adds v at the end of the list and returns a pointer to it.
func (p *Pages[T]) Append(v T) *T {
	e := p.New()
	*e = v
	return e
}

// start returns the index of page k's first value: page k < pageBits
// holds the 2^k values from 2^k-1, and every later page MaxPage values.
func start(k int) int {
	if k < pageBits {
		return 1<<k - 1
	}
	return (k-pageBits+1)*MaxPage - 1
}

// Len returns the number of values in the list.
func (p Pages[T]) Len() int {
	last := len(p) - 1
	if last < 0 {
		return 0
	}
	return start(last) + len(p[last])
}

// At returns a pointer to the value at index i, the one that the
// (i+1)th New or Append added. It panics unless 0 <= i < Len().
func (p Pages[T]) At(i int) *T {
	n := uint(i) + 1 // a negative i wraps past every page
	if n < MaxPage {
		k := bits.Len(n) - 1
		return &p[k][n-1<<k]
	}
	return &p[n>>pageBits+pageBits-1][n&(MaxPage-1)]
}
