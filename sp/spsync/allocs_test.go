package spsync

import "testing"

// The allocation guard counts heap objects per access, which the race
// detector's instrumentation changes, so it skips under -race. CI runs
// it without it: go test ./sp/... -run Allocs.

// TestAllocsSitedAccess pins an instrumented access at no allocation: a
// sited Read and Write by a monitored goroutine, on an address already
// seen, under the instrumented default (sp-hybrid, lock-aware). The
// rewriter passes each site as a string literal, which converts to the
// site's interface type statically, so no access boxes its site.
func TestAllocsSitedAccess(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, restore, err := swapEngine(Options{Backend: "sp-hybrid", LockAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	x := new(int)
	access := func() {
		Read(x, "prog.go:7")
		Write(x, "prog.go:8")
	}
	access()
	if n := testing.AllocsPerRun(1000, access); n != 0 {
		t.Fatalf("a sited Read and Write allocate %v objects, want 0", n)
	}
}
