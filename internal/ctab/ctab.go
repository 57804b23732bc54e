// Package ctab provides a chunked concurrent table: a dense,
// append-mostly array of pointers whose reads are wait-free (two atomic
// loads) and whose writers lock only to grow the spine of chunk
// pointers, never to publish an entry. It is the storage discipline
// behind the sp.Monitor's thread-state lookups and sp-hybrid's
// order-maintenance item tables — the structures every Read/Write on
// a lock-free monitor consults, which therefore must not funnel
// through a reader lock (DePa makes the same observation for its
// per-task order-maintenance handles).
//
// The table is a two-level array: an atomically published spine of
// fixed-size chunks. Growing the spine copies only the spine (one
// pointer per existing chunk); chunks themselves are shared between
// spine generations, so an entry published through an old spine is
// visible through every later one. Entries are atomic pointers:
// a Put is visible to any Get that observes the index as occupied.
//
// Indices are expected to be dense and monotonically allocated (thread
// IDs); sparse use works but wastes whole chunks.
package ctab

import (
	"sync"
	"sync/atomic"
)

const (
	chunkBits = 9
	// ChunkSize is the number of entries per chunk.
	ChunkSize = 1 << chunkBits
	chunkMask = ChunkSize - 1
)

type chunk[T any] [ChunkSize]atomic.Pointer[T]

// Table is the chunked concurrent table. The zero value is empty and
// ready to use. A Table must not be copied after first use.
type Table[T any] struct {
	spine atomic.Pointer[[]*chunk[T]]
	mu    sync.Mutex // serializes spine growth only
}

// Get returns the entry at index i, or nil if no entry has been
// published there. It is wait-free and safe for any number of
// concurrent callers.
func (t *Table[T]) Get(i int64) *T {
	if i < 0 {
		return nil
	}
	sp := t.spine.Load()
	if sp == nil {
		return nil
	}
	c := int(i >> chunkBits)
	if c >= len(*sp) {
		return nil
	}
	return (*sp)[c][i&chunkMask].Load()
}

// Put publishes v at index i, growing the spine as needed. Concurrent
// Puts to distinct indices are safe; concurrent Puts to the same index
// resolve to one of the values. A nil v erases the entry.
func (t *Table[T]) Put(i int64, v *T) {
	if i < 0 {
		panic("ctab: negative index")
	}
	c := int(i >> chunkBits)
	sp := t.spine.Load()
	if sp == nil || c >= len(*sp) {
		sp = t.grow(c)
	}
	(*sp)[c][i&chunkMask].Store(v)
}

// grow extends the spine to cover chunk index c and returns the new
// spine. Chunks are shared with prior spines, so entries published
// through an older spine remain visible.
func (t *Table[T]) grow(c int) *[]*chunk[T] {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spine.Load()
	n := 0
	if sp != nil {
		n = len(*sp)
	}
	if c < n {
		return sp // another writer grew past c first
	}
	// Grow geometrically so k sequential appends cost O(k) spine copies
	// in total, not O(k²).
	newLen := max(c+1, 2*n)
	ns := make([]*chunk[T], newLen)
	if sp != nil {
		copy(ns, *sp)
	}
	for j := n; j < newLen; j++ {
		ns[j] = new(chunk[T])
	}
	t.spine.Store(&ns)
	return &ns
}
