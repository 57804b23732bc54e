package spsync

import (
	"reflect"
	"sync/atomic"
)

// addrMap interns raw pointer values as dense location ids (first-seen
// order). Dense ids keep reports readable and — decisively — make
// serialized recordings deterministic: two SPSYNC_SERIALIZE=1 runs of
// the same binary see the same allocation and access order, so the
// interned ids, and therefore the recorded traces, are byte-identical
// even though the raw heap addresses differ run to run.
//
// Every id comes from one counter, taken under the shard lock of the
// address it is for, so each address gets exactly one id and the ids
// in use are exactly 0..k-1.
//
// The trade-off is that a location id outlives the object: if the
// allocator reuses a freed object's address, old and new object share
// an id. A stale pairing needs the old access to be logically parallel
// to the new one AND the address recycled in between — not seen in
// practice on the corpus, and documented as a limitation.
type addrMap struct {
	ids  table[uint64]
	next atomic.Uint64
}

func (a *addrMap) intern(p uintptr) uint64 {
	return a.ids.getOrPut(p, func() uint64 { return a.next.Add(1) - 1 })
}

// pointerOf extracts the raw address from the injected argument:
// a &expr pointer, or a map value for m[k] element accesses — map
// elements are not addressable, so the rewriter announces the map
// itself (every element access conflicts on the map header, which is
// exactly the granularity `go test -race` uses for map/map conflicts).
// Anything else (the rewriter should never produce one, but
// hand-written calls might) is rejected.
func pointerOf(p any) (uintptr, bool) {
	v := reflect.ValueOf(p)
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		if v.IsNil() {
			return 0, false
		}
		return v.Pointer(), true
	}
	return 0, false
}

// Read records a shared-memory load through p (a pointer to the cell
// being read) at the given source site ("file.go:line"). The rewriter
// injects these before each statement for every shared read the
// statement performs.
func Read(p any, site string) {
	e := current()
	g := e.cur()
	if g == nil {
		e.orphans.Add(1)
		return
	}
	raw, ok := pointerOf(p)
	if !ok {
		return
	}
	g.th.ReadAt(e.addrs.intern(raw), site)
}

// Write records a shared-memory store through p at the given source
// site. The rewriter injects these after each statement for every
// shared write the statement performs (after, so that a statement whose
// evaluation moves the goroutine across a join — e.g. a call that
// Waits — attributes the store to the post-join thread).
func Write(p any, site string) {
	e := current()
	g := e.cur()
	if g == nil {
		e.orphans.Add(1)
		return
	}
	raw, ok := pointerOf(p)
	if !ok {
		return
	}
	g.th.WriteAt(e.addrs.intern(raw), site)
}
