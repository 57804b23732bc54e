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
	Accesses, Queries int64
}

// lockEntry is one recorded access in the ALL-SETS shadow space.
type lockEntry struct {
	t     ThreadID
	site  any
	write bool
	locks LockSet
}

// lockShard is one address-hashed partition of the ALL-SETS access
// history: a private per-location entry map under a private mutex,
// mirroring internal/shadow's splitmix64 shard scheme (the shard index
// comes from the same Memory, so the shadow cell and the lock history
// of an address always co-shard). The protocol only ever consults the
// history of the accessed address, so lock-heavy workloads touching
// distinct addresses proceed on disjoint locks.
type lockShard struct {
	mu      sync.Mutex
	entries map[uint64][]lockEntry
	// Pad to a cache line so hot shard locks do not false-share.
	_ [40]byte
}

// raceShard is one address-hashed partition of the race log. Detected
// races append under the owning shard's lock only, so emit never
// serializes on a global mutex; Report merges the shards in index
// order.
//
// Each race is one 64-byte raceEntry. A lock-aware race keeps its two
// lock sets in the shard's pair list, and a race whose pair equals the
// list's last pair shares that slot: the races one access finds against
// one history, and the runs of races under one lock set, store their
// pair once. Plain races store none.
//
// Both lists are paged (appendPaged) so that an emit never copies a race
// or pair it already logged, and a racy run stops paying for copies of
// its whole log. Paging also lets Report read the entries outside the
// lock: an emit writes only past the page lengths Report saw.
type raceShard struct {
	mu sync.Mutex
	// pages hold the races in detection order.
	pages [][]raceEntry
	// pairs hold the lock-set pairs of lock-aware races.
	pairs [][][2]LockSet
}

// raceEntry is one logged race: a Race with its lock sets moved to the
// shard's pair list. It holds no pointer beyond the two sites.
type raceEntry struct {
	addr          uint64
	first, second ThreadID
	firstSite     any
	secondSite    any
	kind          AccessKind
	// locks locates the race's lock-set pair in its shard's pairs: the
	// page in the bits above pairShift, 1 + the index within the page
	// below them. 0 marks a race of the plain protocol, which has none.
	locks uint32
}

// racePage is the capacity a shard's log pages double up to.
const racePage = 512

// pairShift splits raceEntry.locks; 1 + racePage fits below it.
const pairShift = 10

// appendPaged appends v to the last page of pages, opening a new page
// when it is full: page capacities double from 1 up to racePage and a
// page is never grown, so a list allocates no more than one growing
// slice would and never copies an element it holds.
func appendPaged[T any](pages [][]T, v T) [][]T {
	last := len(pages) - 1
	if last < 0 || len(pages[last]) == cap(pages[last]) {
		size := 1
		if last >= 0 {
			size = min(2*cap(pages[last]), racePage)
		}
		pages = append(pages, make([]T, 0, size))
		last++
	}
	pages[last] = append(pages[last], v)
	return pages
}

// add logs e, whose lock sets are first and second (both nil for a
// plain race), at the end of the shard's pages. The caller holds sh.mu.
func (sh *raceShard) add(e raceEntry, first, second LockSet) {
	if first != nil || second != nil {
		p := len(sh.pairs) - 1
		if p < 0 || !samePair(sh.pairs[p][len(sh.pairs[p])-1], first, second) {
			sh.pairs = appendPaged(sh.pairs, [2]LockSet{first, second})
			p = len(sh.pairs) - 1
		}
		e.locks = uint32(p)<<pairShift | uint32(len(sh.pairs[p]))
	}
	sh.pages = appendPaged(sh.pages, e)
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
func (e *raceEntry) fill(r *Race, pairs [][][2]LockSet) {
	r.Addr, r.Kind, r.First, r.Second = e.addr, e.kind, e.first, e.second
	if e.firstSite != nil {
		r.FirstSite = e.firstSite
	}
	if e.secondSite != nil {
		r.SecondSite = e.secondSite
	}
	if e.locks != 0 {
		pair := &pairs[e.locks>>pairShift][e.locks&(1<<pairShift-1)-1]
		r.FirstLocks, r.SecondLocks = pair[0], pair[1]
	}
}

// threadState is the Monitor's per-thread bookkeeping. States are
// published through a lock-free table, and the flags are atomics,
// because lock-free monitors consult them without the monitor mutex;
// held is touched only by the owning thread's own events.
type threadState struct {
	begun   atomic.Bool
	retired atomic.Bool
	held    map[int]int // lock multiset; nil until first Acquire
	// fork is the thread whose Fork opened the branch this thread runs
	// on (NoThread on main's level), and spawned tells whether it is
	// that Fork's left side. A Join must end the two sides of one fork.
	// Both are set before the ID escapes and never change, so lock-free
	// monitors read them without a lock.
	fork    ThreadID
	spawned bool
	// hb is the thread's SP query view, bound at thread creation (see
	// bindRel): the edge composer around the backend's handle (its
	// "label/bag reference"). It is held here by value, so binding a
	// thread allocates no more than the backend's handle does.
	hb hbRel
	// accesses and queries are this thread's event counters; keeping
	// them per thread keeps concurrent accesses off shared contended
	// cache lines. Report sums them.
	accesses atomic.Int64
	queries  atomic.Int64
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
	// engSeq is the thread's begin stamp on monitors that keep the
	// English order by counting begins (see Monitor.englishBefore);
	// zero elsewhere. Written once, under the monitor mutex.
	engSeq int64
}

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
// sizes the shadow-memory and race-log sharding.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithRaceDetection toggles the Nondeterminator determinacy-race
// detector over the event stream (default on).
func WithRaceDetection(on bool) Option { return func(c *config) { c.raceDetect = on } }

// WithLockAwareness switches race detection to the ALL-SETS protocol: a
// pair of parallel conflicting accesses races only if the lock sets held
// at the two accesses are disjoint. Implies race detection. The access
// histories are sharded by address like the shadow memory, so it keeps
// the Monitor's locking rule: on a lock-free monitor an access still
// synchronizes only on the history shard of its address.
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
// synchronizes only on the shard that owns its address. Every other
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
	// footnote-2 trick): set when the backend is not AnyOrder, so its
	// handles need not answer the English order exactly. begins is the
	// counter; both are only touched under mu, since such monitors are
	// never lockFree.
	stampBegins bool
	begins      int64

	raceDetect bool
	lockAware  bool
	lockFree   bool // a Synchronized backend and no trace

	trace *wire.Encoder // nil unless WithTrace; written only under mu

	threads  ctab.Table[threadState]
	nthreads atomic.Int64
	main     ThreadID

	mem        *shadow.Memory[ThreadID]
	lockShards []lockShard // ALL-SETS access history, lock-aware monitors only

	raceShards []raceShard // sharded race log; emit touches one shard

	relQueries atomic.Int64 // queries issued via Relation/Precedes/Parallel
	forks      atomic.Int64
	joins      atomic.Int64
	puts       atomic.Int64
	gets       atomic.Int64
	finished   atomic.Bool

	// mx is the WithMetrics instrument set; nil on uninstrumented
	// monitors, whose hot paths then pay one predictable branch per
	// metrics block.
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
		mem:        shadow.NewMemory[ThreadID](8 * cfg.workers),
	}
	m.raceShards = make([]raceShard, m.mem.NumShards())
	if cfg.lockAware {
		m.lockShards = make([]lockShard, m.mem.NumShards())
		for i := range m.lockShards {
			m.lockShards[i].entries = map[uint64][]lockEntry{}
		}
	}
	if cfg.reg != nil {
		m.mx = newMonitorMetrics(cfg.reg, m.mem.NumShards())
		if ib, ok := backend.(instrumentable); ok {
			ib.instrument(cfg.reg)
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
	// A recorded trace must be the order the events were applied in.
	m.lockFree = info.Synchronized && cfg.traceW == nil
	if cfg.traceW != nil {
		m.trace = wire.NewEncoder(cfg.traceW)
	}
	m.main = m.newThread(NoThread, false)
	m.backend.Start(m.main)
	if m.mirror != nil {
		m.mirror.Start(m.main)
	}
	m.bindRel(m.main)
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

// newThread allocates the next dense ThreadID and publishes its state
// at the given position in the fork tree.
func (m *Monitor) newThread(fork ThreadID, spawned bool) ThreadID {
	id := ThreadID(m.nthreads.Add(1) - 1)
	m.threads.Put(int64(id), &threadState{fork: fork, spawned: spawned})
	if mx := m.mx; mx != nil {
		mx.threads.Add(1)
	}
	return id
}

// bindRel caches the thread's query view on its state, before the new
// ThreadID escapes to the caller: the backend's handle ("label/bag
// reference"), wrapped in the hbRel composer that layers the thread's
// observed sync-object edges over the strict SP answers. When the
// thread has observed no edges the wrapper is one len check. The
// composer lives in the thread's state, so only a backend's handle may
// allocate.
func (m *Monitor) bindRel(t ThreadID) {
	st := m.state(t)
	st.hb = hbRel{m, st, m.backend.ThreadRelative(t)}
}

// state returns t's bookkeeping, panicking on unknown IDs. The lookup
// is lock-free.
func (m *Monitor) state(t ThreadID) *threadState {
	st := m.threads.Get(int64(t))
	if st == nil {
		panic(fmt.Sprintf("sp: thread t%d is not live (no such thread)", t))
	}
	return st
}

// checkLive panics if the monitor is finished or t has ended.
func (m *Monitor) checkLive(t ThreadID, st *threadState, ev string) {
	if m.finished.Load() {
		panic(fmt.Sprintf("sp: %s on finished monitor", ev))
	}
	if st.retired.Load() {
		panic(fmt.Sprintf("sp: %s: thread t%d is not live (its serial block ended at a fork, join, or put)", ev, t))
	}
}

// begin marks t's first action. The caller holds m.mu or, on a
// lock-free monitor, owns t. The plain load keeps the CAS off the
// access hot path once t has begun.
func (m *Monitor) begin(t ThreadID, st *threadState) {
	if st.begun.Load() || !st.begun.CompareAndSwap(false, true) {
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
	if mx := m.mx; mx != nil {
		mx.evBegin.Add(1)
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
// parent's state is owned by the calling goroutine — so fork-heavy
// workloads scale like access-heavy ones.
func (m *Monitor) Fork(parent ThreadID) (left, right ThreadID) {
	st := m.state(parent)
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.checkLive(parent, st, "Fork")
	m.begin(parent, st)
	left, right = m.newThread(parent, true), m.newThread(parent, false)
	m.backend.Fork(parent, left, right)
	if m.mirror != nil {
		m.mirror.Fork(parent, left, right)
	}
	m.bindRel(left)
	m.bindRel(right)
	if len(st.ctx) > 0 {
		// Both branches run after everything the parent observed.
		m.state(left).ctx = st.ctx
		m.state(right).ctx = st.ctx
	}
	if m.trace != nil {
		// The spawned IDs are implicit in the trace: a fresh Monitor
		// re-allocates them densely in record order on replay.
		m.trace.Fork(int64(parent))
	}
	st.retired.Store(true)
	st.held = nil
	m.forks.Add(1)
	if mx := m.mx; mx != nil {
		mx.evFork.Add(1)
	}
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
	cont = m.newThread(pst.fork, pst.spawned)
	m.backend.Join(left, right, cont)
	if m.mirror != nil {
		m.mirror.Join(left, right, cont)
	}
	m.bindRel(cont)
	// An edge into either branch orders its sources before everything
	// after the join.
	m.state(cont).ctx = m.mergeTokens(lst.ctx, rst.ctx)
	if m.trace != nil {
		m.trace.Join(int64(left), int64(right))
	}
	lst.retired.Store(true)
	rst.retired.Store(true)
	lst.held, rst.held = nil, nil
	m.joins.Add(1)
	if mx := m.mx; mx != nil {
		mx.evJoin.Add(1)
	}
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
	st.snap = m.mergeTokens(st.ctx, []ThreadID{t})
	dead, mid := m.newThread(t, true), m.newThread(t, false)
	m.state(dead).retired.Store(true)
	m.state(mid).retired.Store(true)
	m.backend.Fork(t, dead, mid)
	cont = m.newThread(st.fork, st.spawned)
	m.backend.Join(dead, mid, cont)
	if m.mirror != nil {
		m.mirror.Fork(t, dead, mid)
		m.mirror.Join(dead, mid, cont)
	}
	m.bindRel(cont)
	cst := m.state(cont)
	cst.ctx = st.ctx
	cst.held = st.held
	if m.trace != nil {
		// Only the Put is recorded; replay re-synthesizes the diamond,
		// so the three IDs stay implicit like Fork's and Join's.
		m.trace.Put(int64(t))
	}
	st.retired.Store(true)
	st.held = nil
	m.puts.Add(1)
	if mx := m.mx; mx != nil {
		mx.evPut.Add(1)
	}
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
		ts := m.threads.Get(int64(tok))
		if ts == nil || ts.snap == nil {
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
	if mx := m.mx; mx != nil {
		mx.evGet.Add(1)
	}
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

// englishBefore reports a <_E b for two begun threads: from b's handle
// on AnyOrder backends, whose handles answer the order queries exactly
// for any pair (sp-order, sp-hybrid, depa), and otherwise from the begin
// stamps, which number the threads of a serial event stream in English
// order. Like pairPrecedes it bypasses Monitor.Relation and counts
// toward no report.
func (m *Monitor) englishBefore(a, b ThreadID) bool {
	switch {
	case a == b:
		return false
	case m.stampBegins:
		return m.state(a).engSeq < m.state(b).engSeq
	default:
		return m.state(b).hb.inner.EnglishBeforeCurrent(a)
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
	switch {
	case a == b:
		return false
	case m.mirror != nil:
		return m.mirror.precedes(a, b)
	default:
		return m.state(b).hb.inner.PrecedesCurrent(a)
	}
}

// hbRel layers a thread's observed sync-object edges over the
// backend's strict SP answers: prev happens-before the current thread
// if the SP relation says so, or if prev is (or SP-precedes) a token
// the thread observed through Get — one binary search over the
// English-ordered token antichain, O(log k) order comparisons plus one
// SP query for k observed tokens. The converse direction needs no
// check — a thread still running has published nothing, so no edge can
// order the CURRENT thread before a past access. The English/Hebrew
// order answers pass through unchanged: they only steer which readers
// the shadow protocol retains, and retention stays SP-based (a
// documented missed-race — never false-race — gap for adversarial
// multi-reader edge patterns; the lock-aware ALL-SETS path keeps full
// histories and is unaffected).
type hbRel struct {
	m     *Monitor
	st    *threadState
	inner CurrentRelative
}

// edgeOrdered reports whether an observed edge orders prev before the
// current thread, i.e. whether prev is or SP-precedes some token in
// ctx. Only tokens not English-before prev can qualify, and ctx lists
// them as a suffix whose first token s is the Hebrew-last of them, so
// prev precedes one of them iff it precedes s.
func (r *hbRel) edgeOrdered(prev ThreadID) bool {
	ctx := r.st.ctx
	i := sort.Search(len(ctx), func(i int) bool { return !r.m.englishBefore(ctx[i], prev) })
	return i < len(ctx) && (ctx[i] == prev || r.m.pairPrecedes(prev, ctx[i]))
}

func (r *hbRel) PrecedesCurrent(prev ThreadID) bool {
	if r.inner.PrecedesCurrent(prev) {
		return true
	}
	return len(r.st.ctx) > 0 && r.edgeOrdered(prev)
}

func (r *hbRel) ParallelCurrent(prev ThreadID) bool {
	if !r.inner.ParallelCurrent(prev) {
		return false
	}
	return len(r.st.ctx) == 0 || !r.edgeOrdered(prev)
}

func (r *hbRel) EnglishBeforeCurrent(prev ThreadID) bool {
	return r.inner.EnglishBeforeCurrent(prev)
}

func (r *hbRel) HebrewBeforeCurrent(prev ThreadID) bool {
	return r.inner.HebrewBeforeCurrent(prev)
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
		st.held = map[int]int{}
	}
	st.held[lock]++
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
	if st.held[lock] == 0 {
		panic(fmt.Sprintf("sp: release of unheld mutex m%d by thread t%d", lock, t))
	}
	m.begin(t, st)
	if m.trace != nil {
		m.trace.Release(int64(t), int64(lock))
	}
	st.held[lock]--
	if mx := m.mx; mx != nil {
		mx.evRelease.Add(1)
	}
}

// access applies one memory access to the backend and, when race
// detection is on, to one of the two detection protocols: the
// two-reader shadow cell, or the ALL-SETS history under
// lock-awareness. Both synchronize only on the shard that owns addr,
// so on a lock-free monitor that shard lock is the only one an access
// takes.
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
	st.accesses.Add(1)
	if mx := m.mx; mx != nil {
		idx := -1
		if m.raceDetect {
			idx = m.mem.ShardIndex(addr) // both protocols co-shard by this index
		}
		mx.countAccess(m.lockFree, write, idx)
	}
	if !m.raceDetect {
		return
	}
	if m.lockAware {
		m.lockAwareAccess(t, st, addr, write, site)
		return
	}
	var q int64
	// st.hb is always bound at thread creation: the backend's handle
	// wrapped in the edge composer.
	found, ok := m.mem.AccessOrdered(addr, &st.hb, t, site, write, &q)
	st.queries.Add(q)
	if mx := m.mx; mx != nil {
		mx.queries.Add(q)
	}
	if ok {
		m.emit(raceEntry{
			addr: addr, kind: found.Kind,
			first: found.Prev, second: t,
			firstSite: found.PrevSite, secondSite: site,
		}, nil, nil)
	}
}

// lockAwareAccess applies the ALL-SETS protocol: full access history per
// location (deduplicated by thread, kind, and lock set), a race reported
// for every logically parallel conflicting pair with disjoint lock sets.
// The history is sharded by address hash (lockShard), so only accesses
// of addresses on the same shard contend.
func (m *Monitor) lockAwareAccess(t ThreadID, st *threadState, addr uint64, write bool, site any) {
	cur := newLockSet(st.held)
	sh := &m.lockShards[m.mem.ShardIndex(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var q int64
	rel := &st.hb
	for _, e := range sh.entries[addr] {
		if e.t == t || !(write || e.write) {
			continue
		}
		q++
		if !rel.ParallelCurrent(e.t) {
			continue
		}
		if !e.locks.Disjoint(cur) {
			continue
		}
		kind := WriteWrite
		switch {
		case e.write && !write:
			kind = WriteRead
		case !e.write && write:
			kind = ReadWrite
		}
		m.emit(raceEntry{
			addr: addr, kind: kind,
			first: e.t, second: t,
			firstSite: e.site, secondSite: site,
		}, e.locks, cur)
	}
	st.queries.Add(q)
	if mx := m.mx; mx != nil {
		mx.queries.Add(q)
	}
	dup := false
	for _, e := range sh.entries[addr] {
		if e.t == t && e.write == write && e.locks.Equal(cur) {
			dup = true
			break
		}
	}
	if !dup {
		sh.entries[addr] = append(sh.entries[addr], lockEntry{t, site, write, cur})
	}
}

// emit logs a race, with lock sets first and second under the
// lock-aware protocol, in the owning race-log shard, the only
// synchronization on the emit path, so racy workloads on a lock-free
// monitor do not funnel every race through one global mutex. A race
// found by an access still in flight when Report ran is logged like
// any other and appears in the next Report.
func (m *Monitor) emit(e raceEntry, first, second LockSet) {
	idx := m.mem.ShardIndex(e.addr)
	sh := &m.raceShards[idx]
	sh.mu.Lock()
	sh.add(e, first, second)
	if mx := m.mx; mx != nil {
		mx.raceShardEmits[idx].Add(1)
	}
	sh.mu.Unlock()
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

// Relation returns the SP relationship between threads a and b, as b's
// query handle answers it. Both must have begun; for backends without
// FullQueries, b must be the currently executing thread.
func (m *Monitor) Relation(a, b ThreadID) Relation {
	if a == b {
		return Same
	}
	if !m.lockFree {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.state(a)
	h := m.state(b).hb.inner
	if h == nil {
		panic(fmt.Sprintf("sp: Relation: thread t%d is internal to a Put and never runs", b))
	}
	m.relQueries.Add(1)
	if h.PrecedesCurrent(a) {
		return Precedes
	}
	if h.ParallelCurrent(a) {
		return Parallel
	}
	return Follows
}

// Precedes reports a ≺ b (same preconditions as Relation).
func (m *Monitor) Precedes(a, b ThreadID) bool { return m.Relation(a, b) == Precedes }

// Parallel reports a ∥ b (same preconditions as Relation).
func (m *Monitor) Parallel(a, b ThreadID) bool { return m.Relation(a, b) == Parallel }

// Report finalizes the run and returns the aggregate outcome; further
// events panic. Report may be called more than once. On a lock-free
// monitor an access can still be in flight when Report runs: its race
// is logged like any other and appears in the next Report, after every
// race this one listed.
func (m *Monitor) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished.Store(true)
	if m.trace != nil {
		m.trace.Flush()
	}
	// Snapshot each shard's page headers under its lock; the last
	// pages' headers still grow, so the snapshot is a copy. A later emit
	// writes only past the snapshot's lengths, so the entries are read
	// after the locks drop.
	type shardSnap struct {
		pages [][]raceEntry
		pairs [][][2]LockSet
	}
	snaps := make([]shardSnap, len(m.raceShards))
	total := 0
	for i := range m.raceShards {
		sh := &m.raceShards[i]
		sh.mu.Lock()
		snaps[i] = shardSnap{slices.Clone(sh.pages), slices.Clone(sh.pairs)}
		sh.mu.Unlock()
		for _, p := range snaps[i].pages {
			total += len(p)
		}
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
		for _, p := range snap.pages {
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
	accesses, queries := int64(0), m.relQueries.Load()
	for i := int64(0); i < threads; i++ {
		if st := m.threads.Get(i); st != nil {
			accesses += st.accesses.Load()
			queries += st.queries.Load()
		}
	}
	return Report{
		Backend:   m.info.Name,
		Races:     races,
		Locations: locs,
		Threads:   threads,
		Forks:     m.forks.Load(),
		Joins:     m.joins.Load(),
		Puts:      m.puts.Load(),
		Gets:      m.gets.Load(),
		Accesses:  accesses,
		Queries:   queries,
	}
}
