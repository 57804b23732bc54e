package sp

import (
	"sort"
	"strconv"
)

// LockSet is a canonicalized (sorted, deduplicated) set of mutex IDs, as
// used by the ALL-SETS lock-aware detection protocol.
type LockSet []int

// newLockSet canonicalizes a multiset of held locks.
func newLockSet(held map[int]int) LockSet {
	ls := make(LockSet, 0, len(held))
	for m, n := range held {
		if n > 0 {
			ls = append(ls, m)
		}
	}
	sort.Ints(ls)
	return ls
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
