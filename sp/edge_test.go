package sp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/spt"
	"repro/sp"
)

// Channel-shaped: producer writes x, Puts; consumer (parallel in SP) Gets, reads x.
func TestEdgeSmoke(t *testing.T) {
	for _, name := range sp.BackendNames() {
		t.Run(name, func(t *testing.T) {
			m := sp.MustMonitor(sp.WithBackend(name))
			// fork: child = producer, cont = consumer
			child, cont := m.Fork(m.Main())
			m.Begin(child)
			m.Write(child, 100)
			tok := child
			childEnd := m.Put(child)
			m.Begin(cont)
			m.Get(cont, tok)
			m.Read(cont, 100) // ordered via edge: no race
			final := m.Join(childEnd, cont)
			m.Begin(final)
			rep := m.Report()
			if len(rep.Races) != 0 {
				t.Fatalf("false race: %v", rep.Races)
			}
			if rep.Puts != 1 || rep.Gets != 1 {
				t.Fatalf("puts=%d gets=%d", rep.Puts, rep.Gets)
			}
		})
	}
}

// edgeTree is the channel-shaped parse tree: a producer leaf that
// writes x7 and Puts future f1, in parallel with a consumer leaf that
// (when synced) Gets f1 before reading x7.
func edgeTree(t *testing.T, synced bool) *spt.Tree {
	t.Helper()
	prod := spt.NewLeaf("prod", 1)
	prod.Steps = []spt.Step{spt.W(7), spt.PutStep(1)}
	cons := spt.NewLeaf("cons", 1)
	if synced {
		cons.Steps = []spt.Step{spt.GetStep(1), spt.R(7)}
	} else {
		cons.Steps = []spt.Step{spt.R(7)}
	}
	tr, err := spt.NewTree(spt.Par(prod, cons))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// nestedEdgeTree puts Put/Get steps inside nested S/P nodes, so that
// pruning the observed token sets drops tokens, which the flat
// channel-pipeline and future-dag scenarios never do:
//
//	P( S(p1, P(q1, q2)),  S(r0, g1, P(g2, g3), g4) )
//
// p1 Puts f1 then f2 (so f1's token SP-precedes f2's) and q1, q2 Put
// f3, f4. On the right, g1 Gets f5, whose putter r0 SP-precedes it,
// then f1 and f2; g2 and g3 Get f3 and f4 on top of g1's f2, which
// SP-precedes both; and the join before g4 unites the two branches'
// tokens. Every read of cells 1-4 on the right is ordered only by those
// edges, so the racy twin, the same tree without its Gets, races on
// exactly those cells (cell 6 stays ordered by r0 ≺ g1).
func nestedEdgeTree(t *testing.T, synced bool) *spt.Tree {
	t.Helper()
	leaf := func(label string, steps ...spt.Step) *spt.Node {
		l := spt.NewLeaf(label, 1)
		for _, st := range steps {
			if synced || st.Op != spt.Get {
				l.Steps = append(l.Steps, st)
			}
		}
		return l
	}
	left := spt.Seq(
		leaf("p1", spt.W(1), spt.PutStep(1), spt.W(2), spt.PutStep(2)),
		spt.Par(leaf("q1", spt.W(3), spt.PutStep(3)), leaf("q2", spt.W(4), spt.PutStep(4))))
	right := spt.Seq(
		leaf("r0", spt.W(6), spt.PutStep(5)),
		leaf("g1", spt.GetStep(5), spt.GetStep(1), spt.GetStep(2), spt.R(6), spt.R(1), spt.R(2)),
		spt.Par(leaf("g2", spt.GetStep(3), spt.R(3)), leaf("g3", spt.GetStep(4), spt.R(4))),
		leaf("g4", spt.R(1), spt.R(3), spt.R(4)))
	tr, err := spt.NewTree(spt.Par(left, right))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayEdgeSteps drives Put/Get parse-tree steps through the
// serial replay on every backend and through the concurrent replay on
// the any-order ones: each synced tree is race-free, and its racy twin
// races on exactly the cells only its Gets ordered.
func TestReplayEdgeSteps(t *testing.T) {
	cases := []struct {
		name       string
		tree       func(t *testing.T, synced bool) *spt.Tree
		puts, gets int64
		racy       []uint64 // the racy twin's race locations
		// serialRaces is the racy twin's race count under Replay: one
		// per read the Gets would have ordered.
		serialRaces int
	}{
		{"channel", edgeTree, 1, 1, []uint64{7}, 1},
		{"nested", nestedEdgeTree, 5, 5, []uint64{1, 2, 3, 4}, 7},
	}
	for _, name := range sp.BackendNames() {
		t.Run(name, func(t *testing.T) {
			info, _ := sp.Lookup(name)
			for _, c := range cases {
				for _, parallel := range []bool{false, true} {
					if parallel && !info.AnyOrder {
						continue
					}
					replay := func(tr *spt.Tree) sp.Report {
						m := sp.MustMonitor(sp.WithBackend(name))
						if parallel {
							sp.ReplayParallel(tr, m, 4)
						} else {
							sp.Replay(tr, m)
						}
						return m.Report()
					}
					rep := replay(c.tree(t, true))
					if len(rep.Races) != 0 || rep.Puts != c.puts || rep.Gets != c.gets {
						t.Fatalf("%s (parallel %v) synced: races=%v puts=%d gets=%d, want none, %d, %d",
							c.name, parallel, rep.Races, rep.Puts, rep.Gets, c.puts, c.gets)
					}
					rep = replay(c.tree(t, false))
					if !slices.Equal(rep.Locations, c.racy) || rep.Gets != 0 {
						t.Fatalf("%s (parallel %v) racy twin: race locations %v (gets=%d), want %v",
							c.name, parallel, rep.Locations, rep.Gets, c.racy)
					}
					if !parallel && len(rep.Races) != c.serialRaces {
						t.Fatalf("%s racy twin: races=%v, want %d", c.name, rep.Races, c.serialRaces)
					}
				}
			}
		})
	}
}

// Same without the Get: must race.
func TestEdgeSmokeRacy(t *testing.T) {
	for _, name := range sp.BackendNames() {
		t.Run(name, func(t *testing.T) {
			m := sp.MustMonitor(sp.WithBackend(name))
			child, cont := m.Fork(m.Main())
			m.Begin(child)
			m.Write(child, 100)
			childEnd := m.Put(child)
			m.Begin(cont)
			m.Read(cont, 100)
			final := m.Join(childEnd, cont)
			m.Begin(final)
			rep := m.Report()
			if len(rep.Races) != 1 {
				t.Fatalf("want 1 race, got %v", rep.Races)
			}
		})
	}
}

// TestReplayGetBeforePut replays a consumer that Gets f1 on the spawned
// branch, English-before the producer that Puts it. The concurrent
// replay on two workers runs the consumer on its own goroutine, where
// the Get waits for the Put; a serial walk, which ReplayParallel on one
// worker is too, reaches the Get first and panics instead of waiting.
func TestReplayGetBeforePut(t *testing.T) {
	tree := func() *spt.Tree {
		prod := spt.NewLeaf("prod", 1)
		prod.Steps = []spt.Step{spt.W(7), spt.PutStep(1)}
		cons := spt.NewLeaf("cons", 1)
		cons.Steps = []spt.Step{spt.GetStep(1), spt.R(7)}
		return spt.MustTree(spt.Par(cons, prod))
	}
	m := sp.MustMonitor(sp.WithBackend("sp-hybrid"))
	sp.ReplayParallel(tree(), m, 2)
	if rep := m.Report(); len(rep.Races) != 0 || rep.Gets != 1 {
		t.Fatalf("two workers: races=%v gets=%d, want none and 1", rep.Races, rep.Gets)
	}
	for name, replay := range map[string]func(*spt.Tree, *sp.Monitor){
		"Replay":                       func(tr *spt.Tree, m *sp.Monitor) { sp.Replay(tr, m) },
		"ReplayParallel on one worker": func(tr *spt.Tree, m *sp.Monitor) { sp.ReplayParallel(tr, m, 1) },
	} {
		func() {
			defer func() {
				if p := fmt.Sprint(recover()); !strings.Contains(p, "get of future f1 before its put") {
					t.Fatalf("%s: panic %q, want the get before its put", name, p)
				}
			}()
			replay(tree(), sp.MustMonitor(sp.WithBackend("sp-hybrid")))
		}()
	}
}
