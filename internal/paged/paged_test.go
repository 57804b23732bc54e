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
