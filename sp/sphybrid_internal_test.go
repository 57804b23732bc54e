package sp

import "testing"

// TestHybridBatchesGlobalInsertions is the white-box proof of the
// two-tier amortization: a fork-only phase defers all global-tier work
// to the pending queue, paying one insertion-lock acquisition per
// batchMax structural events (auto-drain) instead of one per fork, and
// the first query materializes everything still pending in one more
// acquisition.
func TestHybridBatchesGlobalInsertions(t *testing.T) {
	h := newHybrid().(*hybrid)
	h.Start(0)

	// A fork spine: thread 0 forks (1, 2), 2 forks (3, 4), ... Each
	// fork's left child is a leaf; the right child hosts the next fork.
	const forks = 300
	cur := ThreadID(0)
	for i := 0; i < forks; i++ {
		left, right := ThreadID(2*i+1), ThreadID(2*i+2)
		h.Fork(cur, left, right)
		cur = right
	}

	wantAuto := uint64(forks / batchMax) // drains forced by the queue bound alone
	if got := h.drains.Load(); got != wantAuto {
		t.Fatalf("fork-only phase: %d drains, want %d (batchMax=%d)", got, wantAuto, batchMax)
	}
	if got := h.batched.Load(); got != wantAuto*batchMax {
		t.Fatalf("fork-only phase: %d events materialized, want %d", got, wantAuto*batchMax)
	}

	// Handles bind without resolving: no drain yet.
	rel := h.ThreadRelative(cur).(*hybridRel)
	if got := h.drains.Load(); got != wantAuto {
		t.Fatalf("ThreadRelative forced a drain: %d, want %d", got, wantAuto)
	}

	// The first query materializes the whole remainder in ONE drain.
	if relationOf(rel.Orders(0)) != Precedes {
		t.Fatal("main must precede the spine tip")
	}
	if got := h.drains.Load(); got != wantAuto+1 {
		t.Fatalf("first query: %d drains, want %d", got, wantAuto+1)
	}
	if got := h.batched.Load(); got != uint64(forks) {
		t.Fatalf("after query: %d events materialized, want %d", got, forks)
	}

	// Relations across the spine are correct after lazy materialization.
	for i := 1; i < forks; i += 37 {
		leaf, prevLeaf, parent := ThreadID(2*i+1), ThreadID(2*i-1), ThreadID(2*i)
		if relationOf(h.ThreadRelative(leaf).Orders(parent)) != Precedes {
			t.Fatalf("t%d must precede its child t%d", parent, leaf)
		}
		if relationOf(h.ThreadRelative(leaf).Orders(prevLeaf)) != Parallel || relationOf(h.ThreadRelative(prevLeaf).Orders(leaf)) != Parallel {
			t.Fatalf("sibling-spine leaves t%d and t%d must be parallel", prevLeaf, leaf)
		}
		if relationOf(rel.Orders(leaf)) != Parallel {
			t.Fatalf("leaf t%d must be parallel to the spine tip", leaf)
		}
	}
	if got := h.drains.Load(); got != wantAuto+1 {
		t.Fatalf("queries on materialized threads drained again: %d", got)
	}

	// Joins batch identically: fold the spine back up and re-query.
	next := ThreadID(2*forks + 1)
	for i := forks - 1; i >= 0; i-- {
		left, right := ThreadID(2*i+1), cur
		h.Join(left, right, next)
		cur = next
		next++
	}
	preQuery := h.drains.Load()
	if relationOf(h.ThreadRelative(cur).Orders(1)) != Precedes {
		t.Fatal("every leaf must precede the fully joined continuation")
	}
	if got := h.drains.Load(); got != preQuery+1 {
		t.Fatalf("join materialization took %d drains, want 1", got-preQuery)
	}
	if got := h.batched.Load(); got != uint64(2*forks) {
		t.Fatalf("total events materialized = %d, want %d", got, 2*forks)
	}
}
