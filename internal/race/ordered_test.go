package race

import (
	"reflect"
	"testing"

	"repro/internal/shadow"
	"repro/internal/spt"
	"repro/sp"
)

// maskedReaderTree builds P(r1, S(r2, w)) on one location: r1 ∥
// everything, r2 ≺ w. English order r1, r2, w; Hebrew order r2, w, r1.
func maskedReaderTree() *spt.Tree {
	r1 := spt.NewLeaf("r1", 1)
	r1.Steps = []spt.Step{spt.R(0)}
	r2 := spt.NewLeaf("r2", 1)
	r2.Steps = []spt.Step{spt.R(0)}
	w := spt.NewLeaf("w", 1)
	w.Steps = []spt.Step{spt.W(0)}
	return spt.MustTree(spt.NewP(r1, spt.NewS(r2, w)))
}

// TestOrderedReplayCatchesMaskedReader mirrors internal/shadow's
// TestOrderedProtocolCatchesMaskedReader through the naive detector's
// real order queries (the sp-order handles' EnglishBeforeCurrent and
// HebrewBeforeCurrent) instead of scripted orders. The masked-reader program as
// events: r1 is the spawned thread t1, r2 runs on the continuation t2,
// and a fork/join diamond orders t2 before w's thread t5. Under the
// feasible concurrent execution order r2, r1, w the one-reader
// discipline masks the racy reader r1, while the two-reader protocol the
// parallel detectors use retains r1 as the Hebrew-max reader and flags
// r1 ∥ w.
func TestOrderedReplayCatchesMaskedReader(t *testing.T) {
	c := newNaiveClient(maskedReaderTree(), false)
	c.m.Start(0)
	c.m.Fork(0, 1, 2)
	c.m.Fork(2, 3, 4)
	c.m.Join(3, 4, 5)
	r1, r2, w := sp.ThreadID(1), sp.ThreadID(2), sp.ThreadID(5)
	rel := func(cur sp.ThreadID) naiveRel { return naiveRel{c: c, h: c.m.ThreadRelative(cur)} }

	// One-reader protocol under the adversarial order: misses. This
	// documents WHY the detectors use the ordered protocol.
	var q int64
	serial := &shadow.Cell[sp.ThreadID]{}
	shadow.OnAccess(serial, rel(r2), r2, nil, false, &q)
	shadow.OnAccess(serial, rel(r1), r1, nil, false, &q)
	if f, ok := shadow.OnAccess(serial, rel(w), w, nil, true, &q); ok {
		t.Fatalf("one-reader protocol unexpectedly caught the race (%+v); update this test's premise", f)
	}

	// Two-reader ordered protocol through the same rel: catches r1 ∥ w.
	ordered := &shadow.Cell[sp.ThreadID]{}
	if f, ok := shadow.OnAccessOrdered(ordered, rel(r2), r2, nil, false, &q); ok {
		t.Fatalf("first read raced: %+v", f)
	}
	if f, ok := shadow.OnAccessOrdered(ordered, rel(r1), r1, nil, false, &q); ok {
		t.Fatalf("second read raced: %+v", f)
	}
	f, ok := shadow.OnAccessOrdered(ordered, rel(w), w, nil, true, &q)
	if !ok || f.Kind != ReadWrite || f.Prev != r1 {
		t.Fatalf("ordered protocol found %+v, want read-write vs r1", f)
	}
	if c.locks == 0 {
		t.Fatal("order queries must go through the counted global lock")
	}
}

// TestParallelDetectorsCompleteOnMaskedReader runs the masked-reader
// program through both scheduler-coupled detectors across seeds and
// worker counts: with the two-reader protocol the r1 ∥ w race must be
// reported under EVERY schedule, including the ones where r2 executes
// before r1 (which the one-reader discipline could miss).
func TestParallelDetectorsCompleteOnMaskedReader(t *testing.T) {
	canon := canonical(maskedReaderTree())
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			for _, d := range detectors {
				if got := d.run(canon, workers, seed).Locations; !reflect.DeepEqual(got, []int{0}) {
					t.Fatalf("%s (workers=%d, seed=%d): raced locations %v, want [0]",
						d.name, workers, seed, got)
				}
			}
		}
	}
}
