// Package sp is the product API for on-the-fly maintenance of
// series-parallel relationships in fork-join multithreaded programs
// (Bender, Fineman, Gilbert, Leiserson, SPAA 2004).
//
// The package is event driven: a program (or a replay adapter) reports
// fork, join, memory-access, and lock events to a Monitor as they
// happen, and the Monitor maintains, on the fly, the SP
// relationship between any previously executed thread and the currently
// executing ones, optionally running a Nondeterminator-style determinacy
// race detector (and an ALL-SETS-style lock-aware detector) over the
// event stream.
//
// # Threads and events
//
// A ThreadID names one thread in the paper's sense: a maximal block of
// serially executed instructions. The monitored program's structure is
// communicated with two structural events:
//
//   - Fork(parent) ends parent's serial block and creates two new
//     threads running logically in parallel: the spawned child (left)
//     and the continuation (right).
//   - Join(left, right) ends the two threads — left the terminal of a
//     fork's spawned branch and right the terminal of the same fork's
//     continuation branch, i.e. joins must be well nested — and
//     creates the continuation thread that runs logically after both.
//
// Between its creation and its terminal event, a thread reports memory
// accesses (Read/Write), lock operations (Acquire/Release), and may ask
// SP queries (Relation, Precedes, Parallel) against any previously
// executed thread. The Monitor checks every event before applying it —
// the acting thread is live, a join is well nested, a Release matches
// a held lock, a Get's tokens were put — and panics on a violation
// without changing any state.
//
// # Sync-object edges (futures, channels)
//
// Programs that synchronize through objects other than fork-join —
// channels, futures, a WaitGroup waited on by a non-spawner — add
// precedence edges the SP relation cannot express. Following the
// future create/get extension of SP-order maintenance ("Efficient Race
// Detection with Futures", arXiv 1901.00622), the Monitor models them
// with a put/get event pair layered OVER the strict SP relation:
//
//   - Put(t) publishes an edge and retires t (its goroutine continues
//     as the returned thread); t's ID is the edge's token.
//   - Get(t, tokens...) orders everything up to each token's Put
//     before everything t (and its descendants) does afterwards.
//
// Structurally a Put is an empty fork-join diamond, so every backend
// accepts it unchanged; the edge itself lives in per-thread token sets
// the race detector composes with the backend's answers. Each set is
// an SP antichain (no token SP-precedes another) kept in ascending
// English order, which by Lemma 1 is descending Hebrew order. For a
// thread that has observed k tokens, asking whether an edge orders a
// logically parallel past access before it is one binary search: O(log
// k) order comparisons and one SP query. Put, Get and Join merge two
// such sets in one pass that gallops each token of the smaller set into
// the larger: a Put, which adds one token to a set of k, costs O(log k)
// order queries plus one copy; a token both sets hold collapses with no
// query, so a Join of two branches that share most of their tokens is
// mostly equality checks; and a Get of m tokens merges their snapshots
// pairwise in O(log m) passes. Sets are never written in place, so a
// merge that adds nothing returns its input and the set is shared
// rather than cloned. Backends without FullQueries get a correct serial
// fallback (a shadow english-hebrew instance answers the arbitrary-pair
// queries edge composition needs). Relation/Precedes/Parallel stay
// strict-SP queries; only race detection consumes the edges.
//
// # Backends
//
// The SP-maintenance algorithm behind a Monitor is pluggable: every
// engine in this repository is adapted to the Maintainer interface and
// registered by name (see Backends). The serial engines (SP-order,
// SP-order-implicit, SP-bags, and the English-Hebrew and offset-span
// labelers) require the event stream of a serial depth-first execution —
// spawned branch before continuation, the order Replay produces — except
// SP-order, which tolerates any event order that respects thread
// creation. The two parallel engines, SP-hybrid's global tier and DePa
// fork-path labels, accept concurrent event delivery from live
// goroutines (BackendInfo.Synchronized), and a Monitor over either one
// applies its events without a global lock unless it records a trace.
//
// See BackendInfo for each backend's capabilities and asymptotic bounds,
// Replay/ReplayParallel for driving a Monitor from an spt.Tree, and
// examples/livemonitor for monitoring a real goroutine program with no
// parse tree anywhere in user code.
package sp

import (
	"fmt"
	"sort"
	"sync"
)

// ThreadID identifies one thread (maximal serial block) of a monitored
// program. IDs are dense, starting at 0 for the main thread.
type ThreadID int64

// NoThread is the invalid ThreadID.
const NoThread ThreadID = -1

// Relation is the series-parallel relationship between two threads.
type Relation uint8

const (
	// Same means the two arguments are the identical thread.
	Same Relation = iota
	// Precedes means the first thread logically precedes the second.
	Precedes
	// Follows means the second thread logically precedes the first.
	Follows
	// Parallel means the threads operate logically in parallel.
	Parallel
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case Same:
		return "same"
	case Precedes:
		return "precedes"
	case Follows:
		return "follows"
	case Parallel:
		return "parallel"
	default:
		return "unknown"
	}
}

// Maintainer is the backend interface every SP-maintenance engine
// implements. The Monitor owns ThreadID allocation (dense, in creation
// order) and translates its public event methods into these calls; a
// Maintainer only maintains the SP structure.
//
// Begin(t) is invoked once, before t's first action; serial backends use
// it to learn the execution (English) order of threads. SP queries are
// asked only through the per-thread handles ThreadRelative returns (see
// CurrentRelative for what they answer).
type Maintainer interface {
	// Start registers the main thread.
	Start(main ThreadID)
	// Begin marks t's first action.
	Begin(t ThreadID)
	// Fork records that parent ended by spawning left ∥ right.
	Fork(parent, left, right ThreadID)
	// Join records that left and right ended, continuing as cont.
	Join(left, right, cont ThreadID)
	// ThreadRelative returns the query handle of thread t, which must
	// already be registered (via Start, Fork, or Join). The handle
	// stays valid for the backend's lifetime.
	ThreadRelative(t ThreadID) CurrentRelative
}

// CurrentRelative answers SP queries of previously executed threads
// against one fixed thread, the handle's own: the query forms the
// shadow-memory protocol issues. Backends hand instances out through
// ThreadRelative; the Monitor binds one per thread when it creates the
// thread, so an access queries the SP structure with no per-query
// table lookup, and every query the Monitor asks goes through one.
//
// PrecedesCurrent and ParallelCurrent answer for any begun prev. When
// the backend's BackendInfo.FullQueries is false, the handle's thread
// must be the currently executing one; otherwise it may be any begun
// thread.
//
// The order queries expose the two total orders behind the SP
// relation (a ≺ b iff a before b in both, a ∥ b iff they disagree);
// the concurrent race-detection protocol needs them to retain the
// English-max and Hebrew-max readers per location. On AnyOrder
// backends they are exact for any pair of begun threads. Serial
// backends may use the serial-stream equivalence instead: there the
// handle's thread is current, so EnglishBeforeCurrent is true for every
// other prev and HebrewBeforeCurrent coincides with PrecedesCurrent.
type CurrentRelative interface {
	// PrecedesCurrent reports prev ≺ current.
	PrecedesCurrent(prev ThreadID) bool
	// ParallelCurrent reports prev ∥ current.
	ParallelCurrent(prev ThreadID) bool
	// EnglishBeforeCurrent reports prev <_E current (serial depth-first
	// order).
	EnglishBeforeCurrent(prev ThreadID) bool
	// HebrewBeforeCurrent reports prev <_H current (spawn-swapped
	// order).
	HebrewBeforeCurrent(prev ThreadID) bool
}

// BackendInfo describes a registered backend's capabilities and the
// asymptotic bounds from the paper's Figure 3.
type BackendInfo struct {
	// Name is the registry key (e.g. "sp-order").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// UpdateBound, QueryBound, SpaceBound are the paper's asymptotic
	// costs per structural event, per query, and per thread.
	UpdateBound, QueryBound, SpaceBound string
	// FullQueries reports whether a thread's handle answers PrecedesCurrent
	// and ParallelCurrent for any two begun threads; when false, the
	// handle's thread must be the currently executing one (SP-bags
	// semantics).
	FullQueries bool
	// AnyOrder reports whether events may arrive in any order that
	// respects thread creation (a live parallel program); when false the
	// backend requires the serial depth-first (English) event order that
	// Replay produces.
	AnyOrder bool
	// Synchronized reports whether the backend takes concurrent event
	// delivery without external locking: Start/Begin/Fork/Join for
	// distinct threads, ThreadRelative, and queries on the handles may
	// all run concurrently. A Monitor over a Synchronized backend that
	// records no trace applies every event without its global mutex;
	// every other Monitor applies each event under that mutex. A
	// Synchronized backend must also set FullQueries and AnyOrder,
	// because the serial edge mirror the Monitor keeps for the other
	// backends is fed only under its mutex, and lock-free accesses need
	// exact order answers.
	Synchronized bool
}

var registry = struct {
	sync.Mutex
	factories map[string]func() Maintainer
	infos     map[string]BackendInfo
}{factories: map[string]func() Maintainer{}, infos: map[string]BackendInfo{}}

// Register adds a backend to the registry. It panics on duplicate or
// empty names; call it from an init function.
func Register(info BackendInfo, factory func() Maintainer) {
	if info.Name == "" || factory == nil {
		panic("sp: Register requires a name and a factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[info.Name]; dup {
		panic(fmt.Sprintf("sp: backend %q registered twice", info.Name))
	}
	registry.factories[info.Name] = factory
	registry.infos[info.Name] = info
}

// Backends returns the registered backends sorted by name.
func Backends() []BackendInfo {
	registry.Lock()
	defer registry.Unlock()
	out := make([]BackendInfo, 0, len(registry.infos))
	for _, info := range registry.infos {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BackendNames returns the sorted registry keys.
func BackendNames() []string {
	infos := Backends()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// Lookup returns the descriptor of the named backend and whether it is
// registered. Tools validating a user-supplied backend name should use
// this rather than scanning Backends themselves.
func Lookup(name string) (BackendInfo, bool) {
	registry.Lock()
	defer registry.Unlock()
	info, ok := registry.infos[name]
	return info, ok
}

// NewMaintainer instantiates the named registered backend as a bare
// Maintainer, with no Monitor around it: no thread-ID allocation, race
// detection, or event serialization. Callers drive Start/Begin/Fork/Join
// themselves, ask SP queries through ThreadRelative handles, and must
// honor the backend's BackendInfo (event order, query form,
// synchronization); benchmarks use it to time SP maintenance alone.
func NewMaintainer(name string) (Maintainer, BackendInfo, error) {
	registry.Lock()
	factory, ok := registry.factories[name]
	info := registry.infos[name]
	registry.Unlock()
	if !ok {
		return nil, BackendInfo{}, fmt.Errorf("sp: unknown backend %q (available: %v)", name, BackendNames())
	}
	return factory(), info, nil
}
