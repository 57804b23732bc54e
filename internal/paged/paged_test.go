package paged

import "testing"

// TestPagesDoubleAndStay appends across many pages: capacities must
// double from 1 up to MaxPage, every page but the last must be full,
// and every pointer Append returned must still reach its value.
func TestPagesDoubleAndStay(t *testing.T) {
	const n = 3000
	var p Pages[int]
	ptrs := make([]*int, n)
	for i := range n {
		ptrs[i] = p.Append(i)
	}
	for i, pg := range p {
		if want := min(1<<i, MaxPage); cap(pg) != want || (i < len(p)-1 && len(pg) != want) {
			t.Fatalf("page %d holds %d values in capacity %d, want capacity %d and full unless last", i, len(pg), cap(pg), want)
		}
	}
	k := 0
	for _, pg := range p {
		for j := range pg {
			if ptrs[k] != &pg[j] || *ptrs[k] != k {
				t.Fatalf("value %d moved or changed: %d", k, *ptrs[k])
			}
			k++
		}
	}
	if k != n {
		t.Fatalf("pages hold %d values, want %d", k, n)
	}
	if z := p.New(); *z != 0 {
		t.Fatalf("New returned %d, want a zero value", *z)
	}
}

// TestPagesIndex appends across many pages: after each append Len
// must count the values and At must find the new one by its index, at
// the pointer Append returned; At must panic on an index outside the
// list.
func TestPagesIndex(t *testing.T) {
	const n = 5000
	var p Pages[int]
	if p.Len() != 0 {
		t.Fatalf("an empty list has Len %d", p.Len())
	}
	ptrs := make([]*int, n)
	for i := range n {
		ptrs[i] = p.Append(i)
		if p.Len() != i+1 || p.At(i) != ptrs[i] {
			t.Fatalf("after %d appends: Len %d, At(%d) %p, Append returned %p", i+1, p.Len(), i, p.At(i), ptrs[i])
		}
	}
	for i := range n {
		if q := p.At(i); q != ptrs[i] || *q != i {
			t.Fatalf("index %d: At reads %d at %p, Append returned %p", i, *q, q, ptrs[i])
		}
	}
	for _, i := range []int{-1, -MaxPage, -1 << 62, n, n + MaxPage} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a list of %d did not panic", i, n)
				}
			}()
			p.At(i)
		}()
	}
}
