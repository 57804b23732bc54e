package sp

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ctab"
	"repro/internal/paged"
	"repro/internal/shadow"
	"repro/internal/wire"
	"repro/sp/metrics"
)

// AccessKind distinguishes the two accesses of a reported race.
type AccessKind = shadow.AccessKind

// Access patterns of a race, re-exported from the shared protocol.
const (
	WriteWrite = shadow.WriteWrite
	WriteRead  = shadow.WriteRead
	ReadWrite  = shadow.ReadWrite
)

// Race is one detected determinacy race: two logically parallel threads
// touching the same address, at least one writing. FirstSite/SecondSite
// carry the optional per-access site metadata (ReadAt/WriteAt); the lock
// sets are populated only under WithLockAwareness. The monitor logs
// each race as a compact 64-byte entry and builds the Race only in
// Report, where races may share their lock sets: treat them as
// read-only.
type Race struct {
	Addr          uint64
	Kind          AccessKind
	First, Second ThreadID
	FirstSite     any
	SecondSite    any
	FirstLocks    LockSet
	SecondLocks   LockSet
}

// String renders the race for reports, e.g.
// "write-read race on x7 between a.go:3 and t5".
func (r Race) String() string {
	b, _ := r.AppendText(make([]byte, 0, 64))
	return string(b)
}

// AppendText appends String's rendering of the race to b and returns
// the extended buffer; it implements encoding.TextAppender, and its
// error is always nil. Each side is its site, or t<id> when the site is
// nil: a string site is appended as it is and any other site as
// fmt.Sprint renders it. Lock-aware races append each side's lock set
// after it. Only a site of some other type than string costs fmt.
func (r Race) AppendText(b []byte) ([]byte, error) {
	b = append(b, r.Kind.String()...)
	b = append(b, " race on x"...)
	b = strconv.AppendUint(b, r.Addr, 10)
	b = append(b, " between "...)
	lockAware := r.FirstLocks != nil || r.SecondLocks != nil
	b = appendSide(b, r.First, r.FirstSite)
	if lockAware {
		b = r.FirstLocks.appendText(b)
	}
	b = append(b, " and "...)
	b = appendSide(b, r.Second, r.SecondSite)
	if lockAware {
		b = r.SecondLocks.appendText(b)
	}
	return b, nil
}

// appendSide appends one side of a race: its site, or t<id> without one.
func appendSide(b []byte, t ThreadID, site any) []byte {
	switch s := site.(type) {
	case nil:
		return strconv.AppendInt(append(b, 't'), int64(t), 10)
	case string:
		return append(b, s...)
	default:
		return fmt.Append(b, s)
	}
}

// Report is the final outcome of a monitoring run.
type Report struct {
	// Backend is the name of the SP-maintenance backend used.
	Backend string
	// Races lists every detected race, one element per detection,
	// merged from the sharded race log in shard order (detection order
	// within a shard); each Report builds a fresh list of exactly this
	// length, once, from the log's compact entries. The merge is
	// deterministic for a deterministic execution: an address always
	// hashes to the same shard, so two monitored runs of the same serial
	// event stream produce identical race lists. Tally groups them by
	// RaceKey.
	Races []Race
	// Locations is the deduplicated, sorted set of raced addresses.
	Locations []uint64
	// Threads, Forks, and Joins count the structural events seen.
	Threads, Forks, Joins int64
	// Puts and Gets count the sync-object edge events (channel
	// send/recv, future put/get, cross-goroutine WaitGroup) applied.
	Puts, Gets int64
	// Accesses counts memory accesses; Queries counts SP queries issued
	// (by the detection protocol and by Relation/Precedes/Parallel).
	// Under lock-awareness a check against a conflicting history entry
	// counts one query, though it asks the backend only when the two
	// accesses' lock sets are disjoint.
	Accesses, Queries int64
}

// lockEntry is one recorded access in the ALL-SETS shadow space.
type lockEntry struct {
	t     ThreadID
	site  any
	write bool
	locks LockSet
}

// shardLog is the monitor's state for one shadow-memory shard's
// addresses, kept beside their cells under the shard's one lock: the
// ALL-SETS histories and the races found there. Each race is one 64-byte
// raceEntry. A lock-aware race keeps its two lock sets in the pair list,
// sharing the list's last pair when it is equal, so the races one access
// finds against one history, and runs of races under one lock set, store
// their pair once. Both lists are paged (paged.Pages): logging a race
// copies none logged before it, and Report reads the entries outside the
// lock, since a race logged later writes only past the page lengths it
// saw.
type shardLog struct {
	entries map[uint64][]lockEntry  // ALL-SETS histories; nil until one is written
	races   paged.Pages[raceEntry]  // in detection order
	pairs   paged.Pages[[2]LockSet] // the lock-set pairs of lock-aware races
	_       [8]byte                 // fills the shard's second cache line (see shadow.Shard)
}

// monitorShard is a shadow-memory shard with the monitor's state.
type monitorShard = shadow.Shard[ThreadID, shardLog]

// raceEntry is one logged race: a Race with its lock sets moved to the
// shard's pair list. It holds no pointer beyond the two sites.
type raceEntry struct {
	addr          uint64
	first, second ThreadID
	firstSite     any
	secondSite    any
	kind          AccessKind
	// locks is 1 + the index of the race's lock-set pair in its shard's
	// pairs. 0 marks a race of the plain protocol, which has none.
	locks uint32
}

// add logs e, whose lock sets are first and second (both nil for a
// plain race), at the end of the log. The caller holds the shard's
// lock.
func (l *shardLog) add(e raceEntry, first, second LockSet) {
	if first != nil || second != nil {
		n := l.pairs.Len()
		if n == 0 || !samePair(*l.pairs.At(n - 1), first, second) {
			l.pairs.Append([2]LockSet{first, second})
			n++
		}
		e.locks = uint32(n)
	}
	l.races.Append(e)
}

// samePair reports whether pair holds the lock sets first and second. A
// nil set differs from an empty one: a race renders its lock sets iff
// either is non-nil.
func samePair(pair [2]LockSet, first, second LockSet) bool {
	same := func(a, b LockSet) bool { return (a == nil) == (b == nil) && a.Equal(b) }
	return same(pair[0], first) && same(pair[1], second)
}

// fill writes the race e logs into r, a zeroed Race, from pairs, the
// lock-set pairs of e's shard. It writes only the fields that are not
// zero, so a site-less plain race costs no pointer write.
func (e *raceEntry) fill(r *Race, pairs paged.Pages[[2]LockSet]) {
	r.Addr, r.Kind, r.First, r.Second = e.addr, e.kind, e.first, e.second
	if e.firstSite != nil {
		r.FirstSite = e.firstSite
	}
	if e.secondSite != nil {
		r.SecondSite = e.secondSite
	}
	if e.locks != 0 {
		pair := pairs.At(int(e.locks) - 1)
		r.FirstLocks, r.SecondLocks = pair[0], pair[1]
	}
}

// threadState is the Monitor's per-thread bookkeeping. States sit in
// place in a lock-free table, one slot per ThreadID, and the flags are
// atomic, because lock-free monitors consult them without the monitor
// mutex; held and self are touched only by the owning thread's own
// events.
type threadState struct {
	flags   atomic.Uint32 // threadCreated, threadBegun, threadRetired
	spawned bool
	held    *heldLocks // nil until the first Acquire
	// fork is the thread whose Fork opened the branch this thread runs
	// on (NoThread on main's level), and spawned, above, tells whether it
	// is that Fork's left side. A Join must end the two sides of one fork.
	// Both are set before the ID escapes and never change, so lock-free
	// monitors read them without a lock.
	fork ThreadID
	// CurrentRelative is the backend's handle for this thread (its
	// "label/bag reference"), bound at thread creation (see bindRel);
	// nil for a Put's two internal threads, which never run. The state
	// is the thread's view for the detection protocols: Orders is the
	// handle's, and ParallelCurrent layers the thread's observed
	// sync-object edges over it, asking m to order the tokens.
	CurrentRelative
	m *Monitor
	// reads and writes count this thread's accesses; keeping them per
	// thread keeps concurrent accesses off shared contended cache lines.
	// Report sums them. The SP queries an access issues are counted by
	// the shard whose lock the detection protocol holds.
	reads, writes atomic.Int64
	// ctx holds the put-tokens this thread has observed through Get:
	// token s here means s's Put happens-before this thread, so
	// everything SP-preceding s is ordered before this thread too. It is
	// an SP antichain (no token SP-precedes another, no duplicates)
	// stored in ascending English order, hence descending Hebrew order
	// (Lemma 1), which is what lets edgeOrdered binary-search it and
	// mergeTokens merge it. Owned by the thread's goroutine — only its
	// own Get replaces the slice — and never written in place, so it may
	// be shared: fork children and join continuations inherit it by
	// reference, and a Get that learns nothing new from a Put's snap, or
	// starts from an empty ctx, keeps or takes that slice as it is.
	ctx []ThreadID
	// snap is the token set a Put publishes: the putter's ctx merged
	// with the putter itself, in the same English-ordered antichain
	// form. Written once at Put and immutable after, so getters' ctx
	// slices may alias it; getters read it through the real
	// synchronization object carrying the edge (channel send/recv,
	// WaitGroup Done/Wait), which orders the write before every read.
	snap []ThreadID
	// self holds the putter's own ID, written once by its Put. A Put
	// with an empty ctx publishes it as snap: a one-token set that sits
	// in the thread's slot, which never moves, and costs no allocation.
	self [1]ThreadID
	// engSeq is the thread's begin stamp on monitors that keep the
	// English order by counting begins (see Monitor.englishBefore);
	// zero elsewhere. Written once, under the monitor mutex.
	engSeq int64
}

// The flags of a threadState, each set once and never cleared.
const (
	// threadCreated makes the slot a thread: it is set after every other
	// field the creating event writes, and a slot without it is no
	// thread, so an ID no event created fails as not live.
	threadCreated uint32 = 1 << iota
	threadBegun
	threadRetired
)

// is reports whether flag f of the thread is set.
func (st *threadState) is(f uint32) bool { return st.flags.Load()&f != 0 }

type config struct {
	backend    string
	workers    int
	raceDetect bool
	lockAware  bool
	traceW     io.Writer
	reg        *metrics.Registry
}

// Option configures a Monitor.
type Option func(*config)

// WithBackend selects the SP-maintenance backend by registry name
// (default "sp-order"; see Backends).
func WithBackend(name string) Option { return func(c *config) { c.backend = name } }

// WithWorkers hints the expected number of concurrently live threads; it
// sizes the shadow memory's sharding, which holds each address's cell
// or ALL-SETS history and its races.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithRaceDetection toggles the Nondeterminator determinacy-race
// detector over the event stream (default on).
func WithRaceDetection(on bool) Option { return func(c *config) { c.raceDetect = on } }

// WithLockAwareness switches race detection to the ALL-SETS protocol: a
// pair of parallel conflicting accesses races only if the lock sets held
// at the two accesses are disjoint. Implies race detection. An address's
// access history takes the place of its shadow cell, in the same shard,
// so it keeps the Monitor's locking rule: on a lock-free monitor an
// access takes only its address's shard lock, for the history and for
// the races it logs.
func WithLockAwareness(on bool) Option { return func(c *config) { c.lockAware = on } }

// WithTrace records every event the Monitor applies — Fork, Join,
// Begin, Read, Write, Acquire, Release, Put, Get — to w in the binary
// trace format that package repro/sp/trace reads back (trace.Replay
// feeds a recorded stream through any registered backend). Access
// sites are rendered with fmt.Sprint and interned in the trace's
// string table. A recording Monitor applies every event under its
// mutex, so the recorded stream is exactly the order in which the
// events were applied. The stream is buffered; Report flushes it, and
// write errors are sticky and surfaced by TraceErr.
func WithTrace(w io.Writer) Option { return func(c *config) { c.traceW = w } }

// Monitor maintains SP relationships over a live stream of fork, join,
// access, and lock events, optionally detecting determinacy races on the
// fly. Create one with NewMonitor; the zero Monitor is not valid.
//
// Every method is safe for concurrent use, under one locking rule. A
// monitor is lock-free when its backend is Synchronized and no trace is
// being recorded; today that is sp-hybrid and depa without WithTrace. Its
// events then take no global mutex: thread states and SP handles are
// read lock-free, structural events go straight to the backend
// (sp-hybrid batches its global-tier order-maintenance insertions under
// one shared insertion lock; depa takes no lock at all), and an access
// takes only the lock of the shard that owns its address, which holds
// the address's cell or ALL-SETS history and its races. Every other
// monitor applies each event, queries included, under one mutex.
// Backends whose BackendInfo.AnyOrder is false additionally require the
// serial depth-first event order that Replay produces.
type Monitor struct {
	mu      sync.Mutex // held by every event unless lockFree, and by Report
	backend Maintainer
	info    BackendInfo
	// mirror is the serial fallback for sync-object edges: composing an
	// edge into the relation needs Precedes on arbitrary PAST thread
	// pairs, which backends without BackendInfo.FullQueries (sp-bags)
	// cannot answer. For them the Monitor maintains a shadow
	// english-hebrew instance fed every structural event, and routes
	// edge-composition queries there, by ID; nil when the backend's
	// handles answer them.
	mirror *englishHebrew
	// stampBegins makes begin number threads in execution order, the
	// English order of the serial event stream (SP-order-implicit's
	// footnote-2 trick): set when the backend is not AnyOrder, whose
	// event stream is serial, so that englishBefore reads two stamps
	// instead of asking a handle. begins is the counter; both are only
	// touched under mu, since such monitors are never lockFree.
	stampBegins bool
	begins      int64

	raceDetect bool
	lockAware  bool
	lockFree   bool // a Synchronized backend and no trace

	trace *wire.Encoder // nil unless WithTrace; written only under mu

	threads  ctab.Table[threadState]
	nthreads atomic.Int64
	main     ThreadID

	mem *shadow.Memory[ThreadID, shardLog] // cells or histories, races and counts

	relQueries atomic.Int64 // queries issued via Relation/Precedes/Parallel
	forks      atomic.Int64
	joins      atomic.Int64
	puts       atomic.Int64
	gets       atomic.Int64
	finished   atomic.Bool

	// mx is the WithMetrics instrument set, nil without one. Report
	// publishes the counts above into it; only Acquire and Release
	// record into it as they happen.
	mx *monitorMetrics
}

// NewMonitor creates a Monitor with the given options and registers the
// main thread (Main). It fails only on an unknown backend name.
func NewMonitor(opts ...Option) (*Monitor, error) {
	cfg := config{backend: "sp-order", workers: 8, raceDetect: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	backend, info, err := NewMaintainer(cfg.backend)
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		backend:    backend,
		info:       info,
		raceDetect: cfg.raceDetect || cfg.lockAware,
		lockAware:  cfg.lockAware,
		mem:        shadow.NewMemory[ThreadID, shardLog](8 * cfg.workers),
	}
	// A recorded trace must be the order the events were applied in.
	m.lockFree = info.Synchronized && cfg.traceW == nil
	if cfg.reg != nil {
		m.mx = newMonitorMetrics(cfg.reg, m.mem.NumShards(), m.lockFree)
		if ib, ok := backend.(instrumentable); ok {
			m.mx.backend = ib.instrument(cfg.reg)
		}
		if cfg.traceW != nil {
			cfg.traceW = countingWriter{cfg.traceW, m.mx.traceBytes}
		}
	}
	m.stampBegins = !info.AnyOrder
	if !info.FullQueries {
		// Serial fallback for sync-object edges: backends that only
		// answer queries against the CURRENT thread cannot compose an
		// edge token against a past access. Such backends are serial
		// (every event reaches them under m.mu), so a serial
		// english-hebrew mirror fed the same events answers the
		// arbitrary-pair queries exactly.
		m.mirror = newEnglishHebrew()
	}
	if cfg.traceW != nil {
		m.trace = wire.NewEncoder(cfg.traceW)
	}
	main, mst := m.newThread(NoThread, false)
	m.main = main
	m.backend.Start(main)
	if m.mirror != nil {
		m.mirror.Start(main)
	}
	m.bindRel(main, mst)
	return m, nil
}

// MustMonitor is NewMonitor panicking on error.
func MustMonitor(opts ...Option) *Monitor {
	m, err := NewMonitor(opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// Backend returns the active backend's descriptor.
func (m *Monitor) Backend() BackendInfo { return m.info }

// Main returns the main thread's ID (always 0).
func (m *Monitor) Main() ThreadID { return m.main }

// newThread allocates the next dense ThreadID and fills its slot at the
// given position in the fork tree. The slot becomes a thread when the
// creating event finishes it with bindRel, or marks it created itself.
func (m *Monitor) newThread(fork ThreadID, spawned bool) (ThreadID, *threadState) {
	id := ThreadID(m.nthreads.Add(1) - 1)
	st := m.threads.Slot(int64(id))
	st.fork, st.spawned, st.m = fork, spawned, m
	return id, st
}

// bindRel caches the backend's handle ("label/bag reference") on t's
// state st and then marks st created, before the new ThreadID escapes
// to the caller. Only the backend's handle may allocate.
func (m *Monitor) bindRel(t ThreadID, st *threadState) {
	st.CurrentRelative = m.backend.ThreadRelative(t)
	st.flags.Or(threadCreated)
}

// state returns t's bookkeeping, panicking on unknown IDs. The lookup
// is lock-free.
func (m *Monitor) state(t ThreadID) *threadState {
	if st := m.threads.At(int64(t)); st != nil && st.is(threadCreated) {
		return st
	}
	panic(fmt.Sprintf("sp: thread t%d is not live (no such thread)", t))
}

// checkLive panics if the monitor is finished or t has ended.
func (m *Monitor) checkLive(t ThreadID, st *threadState, ev string) {
	if m.finished.Load() {
		panic(fmt.Sprintf("sp: %s on finished monitor", ev))
	}
	if st.is(threadRetired) {
		panic(fmt.Sprintf("sp: %s: thread t%d is not live (its serial block ended at a fork, join, or put)", ev, t))
	}
}

// begin marks t's first action. The caller holds m.mu or, on a
// lock-free monitor, owns t, so no other event changes t's flags
// meanwhile. The plain load keeps the CAS off the access hot path once
// t has begun. It is a CAS, not a read of flags.Or's result, because
// go1.24.0 on amd64 miscompiles atomic Or and And when their result is
// used.
func (m *Monitor) begin(t ThreadID, st *threadState) {
	if f := st.flags.Load(); f&threadBegun != 0 || !st.flags.CompareAndSwap(f, f|threadBegun) {
		return
	}
	if m.stampBegins {
		m.begins++
		st.engSeq = m.begins
	}
	m.backend.Begin(t)
	if m.mirror != nil {
		m.mirror.Begin(t)
	}
	if m.trace != nil {
		m.trace.Begin(int64(t))
	}
}

// Begin optionally announces that thread t is about to run. It is
// idempotent and implied by t's first event; replay drivers call it
// explicitly so that threads with no memory accesses still acquire an
// execution position (which the serial backends need for queries).
func (m *Monitor) Begin(t ThreadID) {
	st := m.state(t)
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(t, st, "Begin")
	m.begin(t, st)
}

// Fork ends parent's serial block and returns the two threads that
// continue from it: the spawned child (left) and the continuation
// (right), which run logically in parallel.
//
// On a lock-free monitor Fork takes no global mutex: the thread table
// is lock-free, the backend accepts concurrent structural updates, and
// parent's state is owned by the calling goroutine. That removes a
// global serialization point; whether fork-heavy work then scales is
// what spbench -table concurrent measures (BENCH_concurrent.json),
// and on a 2-vCPU host it did not.
func (m *Monitor) Fork(parent ThreadID) (left, right ThreadID) {
	st := m.state(parent)
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(parent, st, "Fork")
	m.begin(parent, st)
	left, lst := m.newThread(parent, true)
	right, rst := m.newThread(parent, false)
	m.backend.Fork(parent, left, right)
	if m.mirror != nil {
		m.mirror.Fork(parent, left, right)
	}
	// Both branches run after everything the parent observed.
	lst.ctx, rst.ctx = st.ctx, st.ctx
	m.bindRel(left, lst)
	m.bindRel(right, rst)
	if m.trace != nil {
		// The spawned IDs are implicit in the trace: a fresh Monitor
		// re-allocates them densely in record order on replay.
		m.trace.Fork(int64(parent))
	}
	st.flags.Or(threadRetired)
	st.held = nil
	m.forks.Add(1)
	return left, right
}

// Join ends threads left and right and returns the continuation thread
// that runs logically after both. Joins must be well nested: left must
// be the terminal of a fork's spawned branch and right the terminal of
// the same fork's continuation branch, in that order; anything else
// panics before the monitor changes. The continuation takes the fork
// parent's place in the fork tree.
func (m *Monitor) Join(left, right ThreadID) (cont ThreadID) {
	lst, rst := m.state(left), m.state(right)
	if left == right {
		panic("sp: Join of a thread with itself")
	}
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(left, lst, "Join")
	m.checkLive(right, rst, "Join")
	if lst.fork != rst.fork || !lst.spawned || rst.spawned {
		panic(fmt.Sprintf("sp: Join(t%d, t%d) is not well nested (it must end a fork's spawned branch, then that fork's continuation)", left, right))
	}
	pst := m.state(lst.fork)
	cont, cst := m.newThread(pst.fork, pst.spawned)
	m.backend.Join(left, right, cont)
	if m.mirror != nil {
		m.mirror.Join(left, right, cont)
	}
	// An edge into either branch orders its sources before everything
	// after the join.
	cst.ctx = m.mergeTokens(lst.ctx, rst.ctx)
	m.bindRel(cont, cst)
	if m.trace != nil {
		m.trace.Join(int64(left), int64(right))
	}
	lst.flags.Or(threadRetired)
	rst.flags.Or(threadRetired)
	lst.held, rst.held = nil, nil
	m.joins.Add(1)
	return cont
}

// Put publishes a sync-object edge from thread t — the send half of a
// channel operation, a future's fulfilment, a WaitGroup.Done — and
// returns the continuation thread t's goroutine resumes as. The value
// of t itself is the edge's token: hand it to the observer (through
// the real synchronization object) and the observer's Get(token)
// orders everything up to this Put before everything after the Get.
//
// Structurally a Put is an empty fork-join diamond: the backend sees
// Fork(t, dead, mid) immediately followed by Join(dead, mid, cont) —
// exactly a no-op `go func(){}()` joined at once — so every backend
// handles it by construction, well-nesting of joins is preserved, and
// three dense ThreadIDs are consumed. The diamond's two inner threads
// are retired at once, and the continuation takes t's place in the
// fork tree (see Join). The happens-before half of the edge lives in
// the Monitor's per-thread token sets, not in the backend: the SP
// relation stays a strict fork-join relation.
//
// Unlike Fork and Join, Put transfers t's held locks to the
// continuation — a goroutine may send on a channel inside a critical
// section.
func (m *Monitor) Put(t ThreadID) (cont ThreadID) {
	st := m.state(t)
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(t, st, "Put")
	m.begin(t, st)
	st.self[0] = t
	st.snap = m.mergeTokens(st.ctx, st.self[:])
	dead, dst := m.newThread(t, true)
	mid, mst := m.newThread(t, false)
	dst.flags.Or(threadCreated | threadRetired)
	mst.flags.Or(threadCreated | threadRetired)
	m.backend.Fork(t, dead, mid)
	cont, cst := m.newThread(st.fork, st.spawned)
	m.backend.Join(dead, mid, cont)
	if m.mirror != nil {
		m.mirror.Fork(t, dead, mid)
		m.mirror.Join(dead, mid, cont)
	}
	cst.ctx = st.ctx
	cst.held = st.held
	m.bindRel(cont, cst)
	if m.trace != nil {
		// Only the Put is recorded; replay re-synthesizes the diamond,
		// so the three IDs stay implicit like Fork's and Join's.
		m.trace.Put(int64(t))
	}
	st.flags.Or(threadRetired)
	st.held = nil
	m.puts.Add(1)
	return cont
}

// Get makes thread t an observer of previously published sync-object
// edges: each token is the ThreadID a Put retired. After the call,
// every access up to each token's Put is ordered before t's subsequent
// accesses (and those of t's descendants), closing the channel-shaped
// false positives a strict fork-join reading reports. Get is not a
// structural event — t continues as itself — and panics, before t
// begins or the event is recorded, if a token was never Put.
func (m *Monitor) Get(t ThreadID, tokens ...ThreadID) {
	st := m.state(t)
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(t, st, "Get")
	if len(tokens) == 0 {
		return
	}
	// Gather the tokens' published snapshots, folded into t's observed
	// set only once every token is known to be published. The
	// snapshot reads are ordered by the real synchronization object that
	// carried each token. buf keeps a Get of up to three tokens off the
	// heap.
	var buf [4][]ThreadID
	sets := append(buf[:0], st.ctx)
	for _, tok := range tokens {
		ts := m.threads.At(int64(tok))
		if ts == nil || !ts.is(threadCreated) || ts.snap == nil {
			panic(fmt.Sprintf("sp: Get of token t%d, which was never put", tok))
		}
		sets = append(sets, ts.snap)
	}
	m.begin(t, st)
	if m.trace != nil {
		toks := make([]int64, len(tokens))
		for i, tok := range tokens {
			toks[i] = int64(tok)
		}
		m.trace.Get(int64(t), toks)
	}
	// Merge the sets pairwise, balanced like a merge sort's passes, so
	// a Get of m tokens costs O(log m) passes over their snapshots.
	for len(sets) > 1 {
		n := 0
		for i := 0; i < len(sets); i += 2 {
			if i+1 < len(sets) {
				sets[n] = m.mergeTokens(sets[i], sets[i+1])
			} else {
				sets[n] = sets[i]
			}
			n++
		}
		sets = sets[:n]
	}
	st.ctx = m.dropPreceding(sets[0], t)
	m.gets.Add(1)
}

// mergeTokens returns the SP-maximal subset of a ∪ b in ascending
// English order, for two token sets in the ctx form: SP antichains in
// ascending English order. A token SP-preceding another adds no
// ordering information (everything it orders, the later token orders
// too). Neither input is written, and when the merge adds nothing to the
// longer input the result is that slice itself: sets are shared, not
// cloned.
//
// Each token s of the shorter set b is galloped into the longer set a:
// an exponential then a binary search from where the previous token
// landed finds j, the first index of a not English-before s. By Lemma 1
// a is in descending Hebrew order, so:
//   - a[j] == s collapses, with no SP query;
//   - otherwise s SP-precedes some token of a English-after it iff it
//     precedes the Hebrew-last of them, a[j] — the rule edgeOrdered uses
//     — and then it is dropped;
//   - otherwise s stays, and the tokens of a that SP-precede it are the
//     run just below j of those Hebrew-before it, found by galloping
//     down from j.
//
// A dropped or repeated s can dominate nothing (a is an antichain), and
// no token of a English-before the previous s can precede s (it would
// precede that s, or whatever dropped it), so every decision is made
// once, in one left-to-right pass, and each s costs O(log d) queries for
// the d tokens of a it passes. A Put (|b| = 1) costs O(log |a|) queries
// and one copy, and a token equal to the next one of a costs none, so
// two sets sharing most tokens — a join — cost mostly equality checks.
// Like every edge-composition query these are internal and not counted
// in Report.Queries.
func (m *Monitor) mergeTokens(a, b []ThreadID) []ThreadID {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 || (len(a) == len(b) && &a[0] == &b[0]) {
		return a
	}
	// out stays nil while the result is a itself; a[:i] is settled, in
	// out or, while out is nil, in place.
	var out []ThreadID
	i, from := 0, 0
	if m.englishBefore(a[len(a)-1], b[0]) {
		// All of b lies English-after a, as a Put's token always does in
		// a serial run: one comparison instead of galloping from a[0].
		from = len(a)
	}
	for x, s := range b {
		j := gallopUp(max(i, from), len(a), func(j int) bool { return !m.englishBefore(a[j], s) })
		if j < len(a) && a[j] == s {
			j++ // s is a[j], kept as a's
		} else if j == len(a) || !m.pairPrecedes(s, a[j]) {
			q := gallopDown(i, j, func(q int) bool { return m.pairPrecedes(a[q], s) })
			if out == nil {
				// Room for every token still undecided, and no more: a
				// thread's sets live as long as the Monitor.
				out = append(make([]ThreadID, 0, q+1+len(a)-j+len(b)-x-1), a[:i]...)
			}
			out = append(append(out, a[i:q]...), s)
			i = j
			continue
		}
		if out != nil {
			out = append(out, a[i:j]...)
		}
		i = j
	}
	if out == nil {
		return a
	}
	return append(out, a[i:]...)
}

// dropPreceding returns set, a token set in the ctx form, less its
// tokens that SP-precede the begun thread cur: the plain SP relation
// already orders everything they could. Those tokens are English-before
// cur, a prefix of set, and of that prefix the Hebrew-before ones, a
// suffix of it (Lemma 1): one run ending at the prefix's last token. Two
// searches galloping down from the end find it, so when cur is
// English-after every token and parallel to the last — the usual Get —
// it costs one order comparison and one SP query. set is returned
// itself when the run is empty.
func (m *Monitor) dropPreceding(set []ThreadID, cur ThreadID) []ThreadID {
	hi := gallopDown(0, len(set), func(i int) bool { return !m.englishBefore(set[i], cur) })
	if hi == 0 || !m.pairPrecedes(set[hi-1], cur) {
		return set
	}
	lo := gallopDown(0, hi-1, func(i int) bool { return m.pairPrecedes(set[i], cur) })
	return slices.Concat(set[:lo], set[hi:])
}

// gallopUp returns the first index in [lo, hi) at which f turns true,
// or hi, for an f that is false and then true over [lo, hi). It probes
// upward from lo with strides 1, 2, 4, … and binary-searches the last
// stride, so a boundary d indices above lo costs O(log d) calls of f.
func gallopUp(lo, hi int, f func(int) bool) int {
	for step := 1; lo < hi; step *= 2 {
		p := min(lo+step, hi) - 1
		if f(p) {
			return lo + sort.Search(p-lo, func(i int) bool { return f(lo + i) })
		}
		lo = p + 1
	}
	return hi
}

// gallopDown is gallopUp probing downward from hi-1: a boundary d
// indices below hi costs O(log d) calls of f.
func gallopDown(lo, hi int, f func(int) bool) int {
	for step := 1; lo < hi; step *= 2 {
		p := max(hi-step, lo)
		if !f(p) {
			return p + 1 + sort.Search(hi-p-1, func(i int) bool { return f(p + 1 + i) })
		}
		hi = p
	}
	return lo
}

// englishBefore reports a <_E b for two begun threads: off the begin
// stamps, which number the threads of a serial event stream in English
// order, and otherwise from b's handle, which on the AnyOrder backends
// (sp-order, sp-hybrid, depa) is exact for any pair. The stamps cost
// two loads where a handle may pay for a label comparison or walk in
// each order, and the token merges ask this once per gallop probe. The
// a == b test comes first because joins merge sets that share most
// tokens, so most probes compare a token with itself. Like pairPrecedes
// it bypasses Monitor.Relation and counts toward no report.
func (m *Monitor) englishBefore(a, b ThreadID) bool {
	switch {
	case a == b:
		return false
	case m.stampBegins:
		return m.state(a).engSeq < m.state(b).engSeq
	default:
		english, _ := m.state(b).Orders(a)
		return english
	}
}

// pairPrecedes answers a ≺ b in the strict SP relation for
// edge-composition purposes: from b's handle, or from the serial mirror
// when the backend cannot answer arbitrary pairs. It asks the backend
// directly — never Monitor.Relation — so it is safe under m.mu and on
// the lock-free paths alike, and it does not count toward
// Report.Queries (the count must not depend on how many edge tokens a
// thread happens to carry).
func (m *Monitor) pairPrecedes(a, b ThreadID) bool {
	var english, hebrew bool
	switch {
	case a == b:
		return false
	case m.mirror != nil:
		english, hebrew = m.mirror.orders(a, b)
	default:
		english, hebrew = m.state(b).Orders(a)
	}
	return english && hebrew
}

// edgeOrdered reports whether an observed edge orders prev before st's
// thread, i.e. whether prev is or SP-precedes some token in st.ctx.
// Only tokens not English-before prev can qualify, and ctx lists them
// as a suffix whose first token s is the Hebrew-last of them, so prev
// precedes one of them iff it precedes s.
func (st *threadState) edgeOrdered(prev ThreadID) bool {
	ctx, m := st.ctx, st.m
	i := sort.Search(len(ctx), func(i int) bool { return !m.englishBefore(ctx[i], prev) })
	return i < len(ctx) && (ctx[i] == prev || m.pairPrecedes(prev, ctx[i]))
}

// ParallelCurrent reports prev ∥ st's thread in the happens-before
// relation the race detector checks: the SP relation with the thread's
// observed sync-object edges layered over it. prev is parallel if the
// two orders disagree and no token the thread observed through Get is,
// or SP-follows, prev: one binary search over the English-ordered token
// antichain, O(log k) order comparisons plus one SP query for k
// observed tokens, and one len check for a thread that observed none.
// The converse direction needs no check: a thread still running has
// published nothing, so no edge can order it before a past access.
//
// Orders, which the shadow protocol reads to choose the readers it
// retains, is the handle's own and ignores edges: retention stays
// SP-based. That is a documented missed-race (never false-race) gap for
// adversarial multi-reader edge patterns; the lock-aware ALL-SETS path
// keeps full histories and is unaffected.
func (st *threadState) ParallelCurrent(prev ThreadID) bool {
	if english, hebrew := st.Orders(prev); english == hebrew {
		return false
	}
	return len(st.ctx) == 0 || !st.edgeOrdered(prev)
}

// Read records a shared-memory load by thread t at addr.
func (m *Monitor) Read(t ThreadID, addr uint64) { m.access(t, m.state(t), addr, false, nil) }

// ReadAt is Read with an attached source site (any user value, e.g. a
// program counter or a parse-tree node) carried into race reports.
func (m *Monitor) ReadAt(t ThreadID, addr uint64, site any) {
	m.access(t, m.state(t), addr, false, site)
}

// Write records a shared-memory store by thread t at addr.
func (m *Monitor) Write(t ThreadID, addr uint64) { m.access(t, m.state(t), addr, true, nil) }

// WriteAt is Write with an attached source site.
func (m *Monitor) WriteAt(t ThreadID, addr uint64, site any) {
	m.access(t, m.state(t), addr, true, site)
}

// Acquire records that thread t locked mutex lock (reentrant). The lock
// set is touched only by t's own events, and t runs on one goroutine at
// a time, so lock-free monitors need no lock for it.
func (m *Monitor) Acquire(t ThreadID, lock int) {
	st := m.state(t)
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(t, st, "Acquire")
	m.begin(t, st)
	if m.trace != nil {
		m.trace.Acquire(int64(t), int64(lock))
	}
	if st.held == nil {
		st.held = &heldLocks{set: noLocks}
	}
	st.held.acquire(lock)
	if mx := m.mx; mx != nil {
		mx.evAcquire.Add(1)
	}
}

// Release records that thread t unlocked mutex lock. It panics if t does
// not hold the mutex. Locks still held when a thread ends are released
// implicitly (a critical section never spans threads in this model).
func (m *Monitor) Release(t ThreadID, lock int) {
	st := m.state(t)
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(t, st, "Release")
	if st.held == nil || !st.held.release(lock) {
		panic(fmt.Sprintf("sp: release of unheld mutex m%d by thread t%d", lock, t))
	}
	m.begin(t, st)
	if m.trace != nil {
		m.trace.Release(int64(t), int64(lock))
	}
	if mx := m.mx; mx != nil {
		mx.evRelease.Add(1)
	}
}

// access applies one memory access to the backend and, when race
// detection is on, to one of the two detection protocols: the
// two-reader shadow cell, or the ALL-SETS history under
// lock-awareness. Either runs under the lock of the shard that owns
// addr, and logs any race it finds there, so on a lock-free monitor
// that shard lock is the only lock an access takes.
func (m *Monitor) access(t ThreadID, st *threadState, addr uint64, write bool, site any) {
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(t, st, "access")
	m.begin(t, st)
	if m.trace != nil {
		if site != nil {
			m.trace.Access(int64(t), addr, write, true, fmt.Sprint(site))
		} else {
			m.trace.Access(int64(t), addr, write, false, "")
		}
	}
	if write {
		st.writes.Add(1)
	} else {
		st.reads.Add(1)
	}
	if !m.raceDetect {
		return
	}
	sh := m.mem.Lock(addr)
	defer sh.Unlock()
	if m.lockAware {
		lockAwareAccess(sh, t, st, addr, write, site)
	} else if found, ok := sh.AccessOrdered(addr, st, t, site, write); ok {
		sh.X.add(raceEntry{
			addr: addr, kind: found.Kind,
			first: found.Prev, second: t,
			firstSite: found.PrevSite, secondSite: site,
		}, nil, nil)
	}
}

// lockAwareAccess applies the ALL-SETS protocol under sh's lock: full
// access history per location (deduplicated by thread, kind, and lock
// set), a race reported for every logically parallel conflicting pair
// with disjoint lock sets. One pass over the history checks each entry
// of another thread for a race and each entry of t's own for the
// duplicate that keeps the access out of the history. A conflicting
// entry counts one SP query in Report.Queries, but the check asks the
// backend only when the two lock sets are disjoint: a merge of two
// short sorted slices decides most checks under a common lock without
// a walk of the SP structure. The entry and the races share t's current
// lock set.
func lockAwareAccess(sh *monitorShard, t ThreadID, st *threadState, addr uint64, write bool, site any) {
	cur := noLocks
	if st.held != nil {
		cur = st.held.set
	}
	hist := sh.X.entries[addr]
	var q int64
	dup := false
	for _, e := range hist {
		if e.t == t {
			dup = dup || e.write == write && e.locks.Equal(cur)
			continue
		}
		if !(write || e.write) {
			continue
		}
		q++
		if !e.locks.Disjoint(cur) || !st.ParallelCurrent(e.t) {
			continue
		}
		kind := WriteWrite
		switch {
		case e.write && !write:
			kind = WriteRead
		case !e.write && write:
			kind = ReadWrite
		}
		sh.X.add(raceEntry{
			addr: addr, kind: kind,
			first: e.t, second: t,
			firstSite: e.site, secondSite: site,
		}, e.locks, cur)
	}
	sh.Hits++
	sh.Queries += q
	if !dup {
		if sh.X.entries == nil {
			sh.X.entries = map[uint64][]lockEntry{}
		}
		sh.X.entries[addr] = append(hist, lockEntry{t, site, write, cur})
	}
}

// TraceErr returns the sticky error of the WithTrace recorder: nil
// when every record has reached the underlying writer, nil also when
// the Monitor records no trace. It flushes the buffered stream first,
// as Report does; check TraceErr after Report to confirm a complete
// trace.
func (m *Monitor) TraceErr() error {
	if m.trace == nil {
		return nil
	}
	return m.trace.Flush()
}

// Relation returns the SP relationship between threads a and b, read
// off the two orders b's query handle reports. Both must have begun;
// for backends without FullQueries, b must be the currently executing
// thread.
func (m *Monitor) Relation(a, b ThreadID) Relation {
	if a == b {
		return Same
	}
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.state(a)
	st := m.state(b)
	if st.CurrentRelative == nil {
		panic(fmt.Sprintf("sp: Relation: thread t%d is internal to a Put and never runs", b))
	}
	m.relQueries.Add(1)
	return relationOf(st.Orders(a))
}

// Precedes reports a ≺ b (same preconditions as Relation).
func (m *Monitor) Precedes(a, b ThreadID) bool { return m.Relation(a, b) == Precedes }

// Parallel reports a ∥ b (same preconditions as Relation).
func (m *Monitor) Parallel(a, b ThreadID) bool { return m.Relation(a, b) == Parallel }

// Report finalizes the run and returns the aggregate outcome; further
// events panic. Report may be called more than once. On a lock-free
// monitor an access can still be in flight when Report runs: its race
// is logged like any other and appears in the next Report, after every
// race this one listed. On an instrumented monitor Report also
// publishes into the registry what every layer counted since the
// previous Report (see WithMetrics).
func (m *Monitor) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished.Store(true)
	if m.trace != nil {
		m.trace.Flush()
	}
	// Snapshot each shard's page headers and counts under its lock, once;
	// the last pages' headers still grow, so the snapshot is a copy. A
	// race logged later writes only past the snapshot's lengths, so the
	// entries are read after the locks drop.
	snaps := make([]shardLog, m.mem.NumShards())
	hits, emits := make([]int64, len(snaps)), make([]int64, len(snaps))
	var queries int64
	total := 0
	for i := range snaps {
		sh := m.mem.LockShard(i)
		snaps[i] = shardLog{races: slices.Clone(sh.X.races), pairs: slices.Clone(sh.X.pairs)}
		hits[i], queries = sh.Hits, queries+sh.Queries
		sh.Unlock()
		for _, p := range snaps[i].races {
			emits[i] += int64(len(p))
		}
		total += int(emits[i])
	}
	// Every race is built once, in place, in a list of the exact size.
	// Shards partition addresses, so each shard's distinct addresses are
	// found on its own and the union needs no deduplication.
	var races []Race
	if total > 0 {
		races = make([]Race, total)
	}
	locs := []uint64{}
	var addrs []uint64
	n := 0
	for _, snap := range snaps {
		addrs = addrs[:0]
		for _, p := range snap.races {
			for i := range p {
				e := &p[i]
				e.fill(&races[n], snap.pairs)
				n++
				if len(addrs) == 0 || addrs[len(addrs)-1] != e.addr {
					addrs = append(addrs, e.addr)
				}
			}
		}
		slices.Sort(addrs)
		locs = append(locs, slices.Compact(addrs)...)
	}
	slices.Sort(locs)
	threads := m.nthreads.Load()
	var begun, reads, writes int64
	for i := int64(0); i < threads; i++ {
		if st := m.threads.At(i); st != nil && st.is(threadCreated) {
			if st.is(threadBegun) {
				begun++
			}
			reads += st.reads.Load()
			writes += st.writes.Load()
		}
	}
	rep := Report{
		Backend:   m.info.Name,
		Races:     races,
		Locations: locs,
		Threads:   threads,
		Forks:     m.forks.Load(),
		Joins:     m.joins.Load(),
		Puts:      m.puts.Load(),
		Gets:      m.gets.Load(),
		Accesses:  reads + writes,
		Queries:   queries + m.relQueries.Load(),
	}
	if mx := m.mx; mx != nil {
		mx.publish(&rep, begun, reads, writes, queries, hits, emits)
	}
	return rep
}
