package sp

import (
	"slices"
	"strconv"
)

// LockSet is a canonicalized (sorted, deduplicated) set of mutex IDs, as
// used by the ALL-SETS lock-aware detection protocol.
type LockSet []int

// noLocks is the lock set of a thread that holds no mutex. It is empty
// but not nil: a lock-aware race renders its lock sets, empty ones too.
var noLocks = LockSet{}

// heldLocks is a thread's lock multiset. set is its canonical lock set,
// which ALL-SETS history entries and races record as it is: Acquire and
// Release replace it when it changes and never write it in place, so an
// access reads it without building one.
type heldLocks struct {
	set   LockSet     // never nil; noLocks when empty
	again map[int]int // re-acquisitions of a held mutex; nil until one
}

// acquire adds one acquisition of mutex m.
func (h *heldLocks) acquire(m int) {
	i, ok := slices.BinarySearch(h.set, m)
	if !ok {
		h.set = slices.Insert(slices.Clip(h.set), i, m) // a fresh set: the old one may be shared
		return
	}
	if h.again == nil {
		h.again = map[int]int{}
	}
	h.again[m]++
}

// release removes one acquisition of mutex m, reporting false if m is
// not held.
func (h *heldLocks) release(m int) bool {
	i, ok := slices.BinarySearch(h.set, m)
	switch {
	case !ok:
		return false
	case h.again[m] > 0:
		h.again[m]--
	case len(h.set) == 1:
		h.set = noLocks
	default:
		h.set = slices.Concat(h.set[:i], h.set[i+1:])
	}
	return true
}

// Disjoint reports whether the two lock sets share no mutex.
func (a LockSet) Disjoint(b LockSet) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return false
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// Equal reports whether two lock sets contain the same mutexes.
func (a LockSet) Equal(b LockSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the set, e.g. "{m1,m3}", or "{}" when it is empty.
func (a LockSet) String() string { return string(a.appendText(nil)) }

// appendText appends String's rendering of the set to b.
func (a LockSet) appendText(b []byte) []byte {
	b = append(b, '{')
	for i, m := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, 'm'), int64(m), 10)
	}
	return append(b, '}')
}
