// Package ctab provides a chunked concurrent table: a dense,
// append-mostly array of slots, each holding its entry in place, whose
// reads are wait-free (three dependent loads) and whose writers lock
// only to create a chunk or grow the spine, never to fill a slot. It is
// the storage behind the sp.Monitor's thread states and the backends'
// per-thread handles — the structures every Read/Write on a lock-free
// monitor consults, which therefore must not funnel through a reader
// lock (DePa makes the same observation for its per-task
// order-maintenance handles). Because entries sit in their chunks, a
// new entry costs no heap object of its own: a chunk is the unit of
// allocation.
//
// The table is a two-level array: an atomically published spine of
// pointers to chunks. The first chunk holds 1<<firstBits entries and
// each next one twice as many, up to ChunkSize, so a table that stays
// small allocates little; from then on every chunk holds ChunkSize. A
// slot never moves once its chunk exists, so a pointer to it stays
// valid for the table's lifetime. Chunks are created on first use, and
// both chunk creation and spine growth happen under the table's one
// mutex: growing the spine copies the chunk pointers of the current
// spine, so a chunk created concurrently with a growth is never lost,
// and chunks are shared between spine generations, so a slot reached
// through an old spine is the slot every later spine reaches.
//
// The table does not say which slots hold entries. A caller that must
// tell a filled slot from an empty one keeps an atomic marker in the
// entry, stored after the entry's other fields.
//
// Indices are expected to be dense and monotonically allocated (thread
// IDs); sparse use works but wastes whole chunks.
package ctab

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	chunkBits = 8
	// ChunkSize is the number of entries in every chunk past the first
	// ones, whose sizes double up to it.
	ChunkSize = 1 << chunkBits
	chunkMask = ChunkSize - 1
	// firstBits sets the first chunk's size, 1<<firstBits entries.
	firstBits = 4
)

// chunk is one chunk's slots. A chunk of ChunkSize large entries is a
// large heap object, which carries no allocation header, so full chunks
// of the monitor's 128-byte thread states waste nothing.
type chunk[T any] []T

// Table is the chunked concurrent table. The zero value is empty and
// ready to use. A Table must not be copied after first use.
type Table[T any] struct {
	spine atomic.Pointer[[]atomic.Pointer[chunk[T]]]
	mu    sync.Mutex // serializes chunk creation and spine growth
}

// locate returns the chunk that holds index i ≥ 0, i's offset in it and
// the chunk's size. Chunk 0 holds [0, 1<<firstBits); chunk c up to
// chunkBits-firstBits holds [2^(c+firstBits-1), 2^(c+firstBits)); every
// later chunk holds ChunkSize indices.
func locate(i int64) (c, off, size int) {
	switch {
	case i < 1<<firstBits:
		return 0, int(i), 1 << firstBits
	case i < ChunkSize:
		c = bits.Len64(uint64(i)) - firstBits
		size = 1 << (c + firstBits - 1)
		return c, int(i) - size, size
	default:
		return int(i>>chunkBits) + chunkBits - firstBits, int(i & chunkMask), ChunkSize
	}
}

// At returns the slot at index i, or nil when its chunk has not been
// created. It is wait-free and safe for any number of concurrent
// callers; a slot it returns may still be empty.
func (t *Table[T]) At(i int64) *T {
	if i < 0 {
		return nil
	}
	c, off, _ := locate(i)
	sp := t.spine.Load()
	if sp == nil || c >= len(*sp) {
		return nil
	}
	ch := (*sp)[c].Load()
	if ch == nil {
		return nil
	}
	return &(*ch)[off]
}

// Slot returns the slot at index i, creating its chunk, and growing the
// spine to reach it, if needed. Concurrent callers may fill distinct
// slots at once; filling one slot from two goroutines needs the
// caller's own synchronization.
func (t *Table[T]) Slot(i int64) *T {
	if s := t.At(i); s != nil {
		return s
	}
	if i < 0 {
		panic("ctab: negative index")
	}
	c, off, size := locate(i)
	return &(*t.create(c, size))[off]
}

// create returns chunk c, creating it with size slots and growing the
// spine to reach it under t.mu.
func (t *Table[T]) create(c, size int) *chunk[T] {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spine.Load()
	if sp == nil || c >= len(*sp) {
		n := 0
		if sp != nil {
			n = len(*sp)
		}
		// Grow geometrically so k sequential appends cost O(k) spine
		// copies in total, not O(k²).
		ns := make([]atomic.Pointer[chunk[T]], max(c+1, 2*n))
		for j := range n {
			ns[j].Store((*sp)[j].Load())
		}
		t.spine.Store(&ns)
		sp = &ns
	}
	ch := (*sp)[c].Load()
	if ch == nil {
		ch = new(chunk[T])
		*ch = make(chunk[T], size)
		(*sp)[c].Store(ch)
	}
	return ch
}
