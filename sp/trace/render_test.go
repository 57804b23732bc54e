package trace_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// The reference renderer is the fmt-based one Race.String, LockSet.String
// and Signature used before they appended with strconv. Every signature
// and race line must stay byte-identical to it: signatures recorded by
// one version are compared with replays by another.

func refSide(t sp.ThreadID, site any) string {
	if site != nil {
		return fmt.Sprint(site)
	}
	return fmt.Sprintf("t%d", t)
}

func refLocks(a sp.LockSet) string {
	if len(a) == 0 {
		return "{}"
	}
	s := "{"
	for i, m := range a {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("m%d", m)
	}
	return s + "}"
}

func refRace(r sp.Race) string {
	if r.FirstLocks != nil || r.SecondLocks != nil {
		return fmt.Sprintf("%s race on x%d between %s%s and %s%s", r.Kind, r.Addr,
			refSide(r.First, r.FirstSite), refLocks(r.FirstLocks), refSide(r.Second, r.SecondSite), refLocks(r.SecondLocks))
	}
	return fmt.Sprintf("%s race on x%d between %s and %s", r.Kind, r.Addr,
		refSide(r.First, r.FirstSite), refSide(r.Second, r.SecondSite))
}

func refSignature(rep sp.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "threads=%d forks=%d joins=%d puts=%d gets=%d accesses=%d queries=%d\n",
		rep.Threads, rep.Forks, rep.Joins, rep.Puts, rep.Gets, rep.Accesses, rep.Queries)
	fmt.Fprintf(&b, "locations=%v\n", rep.Locations)
	fmt.Fprintf(&b, "races=%d\n", len(rep.Races))
	for _, r := range rep.Races {
		fmt.Fprintf(&b, "%s\n", refRace(r))
	}
	return b.String()
}

// checkRendering requires Signature and every Race.String of rep to
// match the reference byte for byte.
func checkRendering(t *testing.T, name string, rep sp.Report) {
	t.Helper()
	for i, r := range rep.Races {
		if got, want := r.String(), refRace(r); got != want {
			t.Fatalf("%s: race %d renders %q, reference %q", name, i, got, want)
		}
	}
	if got, want := trace.Signature(rep), refSignature(rep); got != want {
		t.Fatalf("%s: signature differs from the reference:\n--- got ---\n%s--- reference ---\n%s", name, got, want)
	}
}

// label is a named string site with a String method of its own, which
// fmt calls: it must not be appended as the bare string.
type label string

func (l label) String() string { return "label:" + string(l) }

// path is a named string site without a String method.
type path string

// pc is a Stringer site of a non-string kind.
type pc struct{ file, fn string }

func (p pc) String() string { return p.fn + "@" + p.file }

// TestRenderingMatchesReference holds hand-built races of every site
// and lock-set form, and the live and replayed reports of every
// workload shape, to the reference renderer.
func TestRenderingMatchesReference(t *testing.T) {
	sites := []any{nil, "main.go:12", "", (*spt.Node)(nil), (*int)(nil), 42, uint8(7), 2.5,
		pc{"a.go", "f"}, label("x"), label(""), path("p.go:3"), &spt.Node{Label: "leaf"}, []int{1, 2}}
	locks := []sp.LockSet{nil, {}, {3}, {1, 3, 12}, {-2, 0, math.MaxInt}}
	var hand sp.Report
	for i, s1 := range sites {
		for j, s2 := range sites {
			hand.Races = append(hand.Races, sp.Race{Addr: uint64(i*len(sites) + j), Kind: sp.AccessKind(j % 4),
				First: sp.ThreadID(i), Second: sp.ThreadID(j), FirstSite: s1, SecondSite: s2})
		}
	}
	for i, l1 := range locks {
		for j, l2 := range locks {
			hand.Races = append(hand.Races, sp.Race{Addr: math.MaxUint64 - uint64(i), Kind: sp.WriteRead,
				First: sp.NoThread, Second: sp.ThreadID(math.MaxInt64 - j), FirstSite: sites[j%len(sites)],
				FirstLocks: l1, SecondLocks: l2})
		}
	}
	checkRendering(t, "hand-built races", hand)
	hand.Locations = []uint64{0, 7, math.MaxUint64}
	hand.Threads, hand.Queries = 3, math.MaxInt64
	checkRendering(t, "hand-built report", hand)
	checkRendering(t, "empty report", sp.Report{})

	sizes := []int{64, 1024}
	if raceEnabled {
		// Replay and rendering here are serial, and the race detector
		// makes the large lock-aware reports take a minute.
		sizes = sizes[:1]
	}
	for _, sc := range workload.Scenarios() {
		for _, n := range sizes {
			name := fmt.Sprintf("%s/%d", sc.Name, n)
			data, live := recordScenario(t, sc, n, 5)
			checkRendering(t, name+" live", live)
			for _, backend := range []string{"sp-order", "sp-hybrid", "depa"} {
				for _, lockAware := range []bool{false, true} {
					rep, err := trace.ReplayBackend(data, backend, sp.WithLockAwareness(lockAware))
					if err != nil {
						t.Fatal(err)
					}
					checkRendering(t, fmt.Sprintf("%s on %s, lock-aware %v", name, backend, lockAware), rep)
				}
			}
		}
	}
}
