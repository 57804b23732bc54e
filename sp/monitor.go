package sp

import (
	"fmt"
	"io"
	"slices"
	"sort"
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
// sets are populated only under WithLockAwareness.
type Race struct {
	Addr          uint64
	Kind          AccessKind
	First, Second ThreadID
	FirstSite     any
	SecondSite    any
	FirstLocks    LockSet
	SecondLocks   LockSet
}

// String renders the race for reports.
func (r Race) String() string {
	name := func(t ThreadID, site any) string {
		if site != nil {
			return fmt.Sprint(site)
		}
		return fmt.Sprintf("t%d", t)
	}
	if r.FirstLocks != nil || r.SecondLocks != nil {
		return fmt.Sprintf("%s race on x%d between %s%s and %s%s", r.Kind, r.Addr,
			name(r.First, r.FirstSite), r.FirstLocks, name(r.Second, r.SecondSite), r.SecondLocks)
	}
	return fmt.Sprintf("%s race on x%d between %s and %s", r.Kind, r.Addr,
		name(r.First, r.FirstSite), name(r.Second, r.SecondSite))
}

// Report is the final outcome of a monitoring run.
type Report struct {
	// Backend is the name of the SP-maintenance backend used.
	Backend string
	// Races lists every detected race, merged from the sharded race log
	// in shard order (detection order within a shard). The merge is
	// deterministic for a deterministic execution: an address always
	// hashes to the same shard, so two monitored runs of the same
	// serial event stream produce identical race lists.
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
	// DroppedRaces counts races detected by accesses still in flight
	// when the Races() stream closed. The stream itself is lossless: a
	// race emitted before Report is always delivered to a draining
	// receiver, however slow (slower receivers spill into an unbounded
	// backlog rather than dropping). Every race — dropped from the
	// stream or not — appears in a Report's Races.
	DroppedRaces int64
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
// races append under the owning shard's lock only; Report merges the
// shards in index order, and the Races() stream claims races per shard
// through the streamed watermark, so emit never serializes on a global
// mutex unless a stream listener exists.
type raceShard struct {
	mu    sync.Mutex
	races []Race // detection order within the shard
	// late holds races detected by accesses still in flight when Report
	// closed the shard: they are counted in DroppedRaces, excluded from
	// the stream, and surface only in subsequent Report snapshots.
	late     []Race
	streamed int   // races[:streamed] have been claimed by the stream
	emitted  int64 // every emit into this shard, races and late alike
	closed   bool  // Report has cut this shard off
}

// threadState is the Monitor's per-thread bookkeeping. States are
// published through a lock-free table, and the flags are atomics,
// because the access fast path consults them without the monitor
// mutex; held is touched only by the owning thread's own lock events
// (under the monitor mutex) and its own accesses.
type threadState struct {
	begun   atomic.Bool
	retired atomic.Bool
	held    map[int]int // lock multiset; nil until first Acquire
	// rel is the cached SP query handle for this thread — the "label/
	// bag reference" of the backend, bound at thread creation on
	// fast-path monitors, nil otherwise.
	rel CurrentRelative
	// accesses and queries are this thread's event counters; keeping
	// them per thread keeps the fast path free of shared contended
	// cache lines. Report sums them.
	accesses atomic.Int64
	queries  atomic.Int64
	// ctx holds the put-tokens this thread has observed through Get:
	// token s here means s's Put happens-before this thread, so
	// everything SP-preceding s is ordered before this thread too. It is
	// an SP antichain (no token SP-precedes another, no duplicates)
	// stored in ascending English order, hence descending Hebrew order
	// (Lemma 1), which is what lets edgeOrdered binary-search it. Owned
	// by the thread's goroutine — only its own Get replaces the slice
	// (wholesale, never in place: not even sorted) — so descendants may
	// inherit it by reference.
	ctx []ThreadID
	// snap is the token set a Put publishes: the putter's ctx plus the
	// putter itself, pruned to the same English-ordered antichain form.
	// Written once at Put and immutable after; getters read it through
	// the real synchronization object carrying the edge (channel
	// send/recv, WaitGroup Done/Wait), which orders the write before
	// every read.
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
// sizes the shadow-memory sharding and the Races() stream buffer.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithRaceDetection toggles the Nondeterminator determinacy-race
// detector over the event stream (default on).
func WithRaceDetection(on bool) Option { return func(c *config) { c.raceDetect = on } }

// WithLockAwareness switches race detection to the ALL-SETS protocol: a
// pair of parallel conflicting accesses races only if the lock sets held
// at the two accesses are disjoint. Implies race detection and disables
// the sharded access fast path (ALL-SETS keeps full per-location access
// histories under one lock).
func WithLockAwareness(on bool) Option { return func(c *config) { c.lockAware = on } }

// WithTrace records every event the Monitor applies — Fork, Join,
// Begin, Read, Write, Acquire, Release — to w in the binary trace
// format that package repro/sp/trace reads back (trace.Replay feeds a
// recorded stream through any registered backend). Access sites are
// rendered with fmt.Sprint and interned in the trace's string table.
// The stream is buffered; Report flushes it, and write errors are
// sticky and surfaced by TraceErr. On fast-path monitors, access
// records stage in per-shard buffers that structural events flush in
// shard order, so the recorded stream is always a valid linearization
// of the run.
func WithTrace(w io.Writer) Option { return func(c *config) { c.traceW = w } }

// Monitor maintains SP relationships over a live stream of fork, join,
// access, and lock events, optionally detecting determinacy races on the
// fly. Create one with NewMonitor; the zero Monitor is not valid.
//
// Every method is safe for concurrent use. Read/Write take the sharded
// fast path when the backend is internally synchronized and declares
// ConcurrentQueries (sp-hybrid, depa): they synchronize only on the
// owning shadow-memory shard, with thread-state and SP-handle lookups
// lock-free. Structural events — Fork, Join, Acquire, Release, Begin —
// serialize through one global mutex UNLESS the backend additionally
// declares ConcurrentStructural and no trace is being recorded, in
// which case they too run without the global mutex (sp-hybrid batches
// its global-tier order-maintenance insertions under one shared
// insertion lock; depa takes no lock at all). For other backends the
// Monitor serializes everything; backends whose BackendInfo.AnyOrder
// is false additionally require the serial depth-first event order that
// Replay produces.
type Monitor struct {
	mu      sync.Mutex // serializes structural events (and everything, off the fast path)
	backend Maintainer
	info    BackendInfo
	handles HandleMaintainer // non-nil when the backend hands out query handles
	orders  orderQuerier     // non-nil when the backend answers order queries exactly
	// mirror is the serial fallback for sync-object edges: composing an
	// edge into the relation needs Precedes on arbitrary PAST thread
	// pairs, which backends without BackendInfo.FullQueries (sp-bags)
	// cannot answer. For them the Monitor maintains a shadow
	// english-hebrew instance fed every structural event, and routes
	// edge-composition queries there; nil when the backend answers them
	// itself.
	mirror Maintainer
	// stampBegins makes begin number threads in execution order, the
	// English order of the serial event stream (SP-order-implicit's
	// footnote-2 trick): set when the backend exposes neither
	// orderQuerier nor exact per-thread handles. begins is the counter;
	// both are only touched under mu, since such backends never take
	// the lock-free structural path.
	stampBegins bool
	begins      int64

	raceDetect     bool
	lockAware      bool
	fastAccess     bool // Read/Write bypass mu: Synchronized + ConcurrentQueries + exact orders, not lock-aware
	lockFreeQ      bool // queries may run without mu: Synchronized + ConcurrentQueries
	fastStructural bool // Fork/Join/Acquire/Release/Begin bypass mu: ConcurrentStructural, no trace

	trace       *wire.Encoder     // nil unless WithTrace
	traceShards []*wire.AccessBuf // per-shard access staging, fast-path monitors only
	traceDirty  []atomic.Bool     // traceShards[i] has records staged since its last flush

	threads  ctab.Table[threadState]
	nthreads atomic.Int64
	main     ThreadID

	mem        *shadow.Memory[ThreadID]
	lockShards []lockShard // ALL-SETS access history, lock-aware monitors only

	raceShards []raceShard // sharded race log; emit touches one shard
	requested  atomic.Bool // Races() has been called; emits also stream

	raceMu       sync.Mutex
	backlog      []Race // races awaiting stream delivery while the channel is full
	pumping      bool   // a pump goroutine owns stream delivery (and the close)
	raceCh       chan Race
	streamClosed bool // guarded by raceMu; no more races will be streamed
	chClosed     bool // guarded by raceMu; raceCh has actually been closed
	dropped      atomic.Int64

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
		raceCh:     make(chan Race, 64*cfg.workers),
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
	m.handles, _ = backend.(HandleMaintainer)
	m.orders, _ = backend.(orderQuerier)
	m.stampBegins = m.orders == nil && (m.handles == nil || !info.ConcurrentQueries)
	if !info.FullQueries {
		// Serial fallback for sync-object edges: backends that only
		// answer queries against the CURRENT thread cannot compose an
		// edge token against a past access. Such backends are serial
		// (every event reaches them under m.mu), so a serial
		// english-hebrew mirror fed the same events answers the
		// arbitrary-pair queries exactly.
		m.mirror, _, err = NewMaintainer("english-hebrew")
		if err != nil {
			return nil, err
		}
	}
	// Queries escape the global mutex only when the backend declares
	// them safe concurrently with structural updates; the access fast
	// path additionally requires exact order answers (per-thread
	// handles or the order-querier surface), without which the
	// two-reader protocol would silently lose completeness.
	m.lockFreeQ = info.Synchronized && info.ConcurrentQueries
	m.fastAccess = m.lockFreeQ && !cfg.lockAware && (m.handles != nil || m.orders != nil)
	// Structural events bypass the global mutex only when the backend
	// accepts them concurrently AND no trace is being recorded (the
	// trace encoder and its linearizing shard flushes need the mutex).
	m.fastStructural = m.lockFreeQ && info.ConcurrentStructural && cfg.traceW == nil
	if cfg.traceW != nil {
		m.trace = wire.NewEncoder(cfg.traceW)
		if m.fastAccess {
			m.traceShards = make([]*wire.AccessBuf, m.mem.NumShards())
			m.traceDirty = make([]atomic.Bool, m.mem.NumShards())
			for i := range m.traceShards {
				m.traceShards[i] = m.trace.NewAccessBuf()
			}
		}
	}
	m.main = m.newThread()
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

// newThread allocates the next dense ThreadID and publishes its state.
func (m *Monitor) newThread() ThreadID {
	id := ThreadID(m.nthreads.Add(1) - 1)
	m.threads.Put(int64(id), &threadState{})
	if mx := m.mx; mx != nil {
		mx.threads.Add(1)
	}
	return id
}

// bindRel caches the thread's query view on its state, before the new
// ThreadID escapes to the caller: the backend's handle ("label/bag
// reference") when it hands them out, the by-ID adapter otherwise,
// always wrapped in the hbRel composer that layers the thread's
// observed sync-object edges over the strict SP answers. When the
// thread has observed no edges the wrapper is one len check.
func (m *Monitor) bindRel(t ThreadID) {
	st := m.state(t)
	var inner CurrentRelative
	if m.handles != nil {
		inner = m.handles.ThreadRelative(t)
	} else {
		inner = relCur{m, t}
	}
	st.rel = hbRel{m, st, inner}
}

// state returns t's bookkeeping, panicking on unknown IDs. The lookup
// is lock-free.
func (m *Monitor) state(t ThreadID) *threadState {
	st := m.threads.Get(int64(t))
	if st == nil {
		panic(fmt.Sprintf("sp: unknown thread t%d", t))
	}
	return st
}

// checkLive panics if the monitor is finished or t has ended.
func (m *Monitor) checkLive(t ThreadID, st *threadState, ev string) {
	if m.finished.Load() {
		panic(fmt.Sprintf("sp: %s on finished monitor", ev))
	}
	if st.retired.Load() {
		panic(fmt.Sprintf("sp: %s by ended thread t%d (its serial block ended at a fork, join, or put)", ev, t))
	}
}

// begin marks t's first action. Callers hold m.mu, or own t on a
// fast-structural monitor (where concurrent owners of DISTINCT threads
// may race here, so the first-action claim is a CAS; tracing monitors
// never take the lock-free route, keeping the encoder serialized).
func (m *Monitor) begin(t ThreadID, st *threadState) {
	if st.begun.CompareAndSwap(false, true) {
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
}

// flushTraceShards drains the per-shard access buffers written since
// the last flush into the main trace stream, in shard order. Structural
// events call it before recording themselves so that a thread's staged
// accesses always precede the event that retires the thread or changes
// its lock set — the invariant that keeps concurrently recorded traces
// replayable. Only dirty shards are visited: staging marks the shard
// under its lock, so every staged-but-unflushed record lives in a shard
// whose dirty flag is set, and the structural event's own thread cannot
// be staging concurrently with its call here (one goroutine per
// thread). A shard dirtied by another thread racing the flush is simply
// picked up by the next flush, which is still before that thread's own
// next structural event.
func (m *Monitor) flushTraceShards() {
	for i, buf := range m.traceShards {
		if !m.traceDirty[i].Load() {
			continue
		}
		sh := m.mem.Shard(i)
		sh.Lock()
		m.traceDirty[i].Store(false)
		buf.Flush()
		sh.Unlock()
	}
}

// Begin optionally announces that thread t is about to run. It is
// idempotent and implied by t's first event; replay drivers call it
// explicitly so that threads with no memory accesses still acquire an
// execution position (which the serial backends need for queries).
func (m *Monitor) Begin(t ThreadID) {
	st := m.state(t)
	if m.fastStructural {
		m.checkLive(t, st, "Begin")
		m.begin(t, st)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkLive(t, st, "Begin")
	m.begin(t, st)
}

// Fork ends parent's serial block and returns the two threads that
// continue from it: the spawned child (left) and the continuation
// (right), which run logically in parallel.
//
// On fast-structural monitors (a ConcurrentStructural backend, no
// trace) Fork runs entirely without the global mutex: the thread table
// is lock-free, the backend accepts concurrent structural updates, and
// parent's state is owned by the calling goroutine — so fork-heavy
// workloads scale like access-heavy ones.
func (m *Monitor) Fork(parent ThreadID) (left, right ThreadID) {
	st := m.state(parent)
	if m.fastStructural {
		m.checkLive(parent, st, "Fork")
		m.begin(parent, st)
		left, right = m.newThread(), m.newThread()
		m.backend.Fork(parent, left, right)
		m.bindRel(left)
		m.bindRel(right)
		if len(st.ctx) > 0 {
			// Both branches run after everything the parent observed.
			m.state(left).ctx = st.ctx
			m.state(right).ctx = st.ctx
		}
		st.retired.Store(true)
		st.held = nil
		m.forks.Add(1)
		if mx := m.mx; mx != nil {
			mx.evFork.Add(1)
		}
		return left, right
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkLive(parent, st, "Fork")
	m.begin(parent, st)
	left, right = m.newThread(), m.newThread()
	m.backend.Fork(parent, left, right)
	if m.mirror != nil {
		m.mirror.Fork(parent, left, right)
	}
	m.bindRel(left)
	m.bindRel(right)
	if len(st.ctx) > 0 {
		m.state(left).ctx = st.ctx
		m.state(right).ctx = st.ctx
	}
	if m.trace != nil {
		// The spawned IDs are implicit in the trace: a fresh Monitor
		// re-allocates them densely in record order on replay.
		m.flushTraceShards()
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

// Join ends threads left and right — the terminals of the two branches
// of one fork (joins must be well nested) — and returns the continuation
// thread that runs logically after both.
func (m *Monitor) Join(left, right ThreadID) (cont ThreadID) {
	lst, rst := m.state(left), m.state(right)
	if left == right {
		panic("sp: Join of a thread with itself")
	}
	if m.fastStructural {
		m.checkLive(left, lst, "Join")
		m.checkLive(right, rst, "Join")
		cont = m.newThread()
		m.backend.Join(left, right, cont)
		m.bindRel(cont)
		m.joinCtx(lst, rst, m.state(cont))
		lst.retired.Store(true)
		rst.retired.Store(true)
		lst.held, rst.held = nil, nil
		m.joins.Add(1)
		if mx := m.mx; mx != nil {
			mx.evJoin.Add(1)
		}
		return cont
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkLive(left, lst, "Join")
	m.checkLive(right, rst, "Join")
	cont = m.newThread()
	m.backend.Join(left, right, cont)
	if m.mirror != nil {
		m.mirror.Join(left, right, cont)
	}
	m.bindRel(cont)
	m.joinCtx(lst, rst, m.state(cont))
	if m.trace != nil {
		m.flushTraceShards()
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
// three dense ThreadIDs are consumed. The happens-before half of the
// edge lives in the Monitor's per-thread token sets, not in the
// backend: the SP relation stays a strict fork-join relation.
//
// Unlike Fork and Join, Put transfers t's held locks to the
// continuation — a goroutine may send on a channel inside a critical
// section.
func (m *Monitor) Put(t ThreadID) (cont ThreadID) {
	st := m.state(t)
	if m.fastStructural {
		m.checkLive(t, st, "Put")
		m.begin(t, st)
		st.snap = m.pruneCtx(append(append(make([]ThreadID, 0, len(st.ctx)+1), st.ctx...), t), NoThread)
		dead, mid := m.newThread(), m.newThread()
		m.backend.Fork(t, dead, mid)
		cont = m.newThread()
		m.backend.Join(dead, mid, cont)
		m.bindRel(cont)
		cst := m.state(cont)
		cst.ctx = st.ctx
		cst.held = st.held
		st.retired.Store(true)
		st.held = nil
		m.puts.Add(1)
		if mx := m.mx; mx != nil {
			mx.evPut.Add(1)
		}
		return cont
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkLive(t, st, "Put")
	m.begin(t, st)
	st.snap = m.pruneCtx(append(append(make([]ThreadID, 0, len(st.ctx)+1), st.ctx...), t), NoThread)
	dead, mid := m.newThread(), m.newThread()
	m.backend.Fork(t, dead, mid)
	cont = m.newThread()
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
		m.flushTraceShards()
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
// structural event — t continues as itself — and panics if a token was
// never Put.
func (m *Monitor) Get(t ThreadID, tokens ...ThreadID) {
	if len(tokens) == 0 {
		return
	}
	st := m.state(t)
	if m.fastStructural {
		m.checkLive(t, st, "Get")
		m.begin(t, st)
		m.applyGet(t, st, tokens)
		m.gets.Add(1)
		if mx := m.mx; mx != nil {
			mx.evGet.Add(1)
		}
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkLive(t, st, "Get")
	m.begin(t, st)
	if m.trace != nil {
		m.flushTraceShards()
		toks := make([]int64, len(tokens))
		for i, tok := range tokens {
			toks[i] = int64(tok)
		}
		m.trace.Get(int64(t), toks)
	}
	m.applyGet(t, st, tokens)
	m.gets.Add(1)
	if mx := m.mx; mx != nil {
		mx.evGet.Add(1)
	}
}

// applyGet folds the tokens' published snapshots into t's observed
// set. The snapshot reads are ordered by the real synchronization
// object that carried each token; the result is always a fresh slice
// because t's old slice may be shared with retired ancestors.
func (m *Monitor) applyGet(t ThreadID, st *threadState, tokens []ThreadID) {
	merged := make([]ThreadID, 0, len(st.ctx)+len(tokens))
	merged = append(merged, st.ctx...)
	for _, tok := range tokens {
		ts := m.state(tok)
		if ts.snap == nil {
			panic(fmt.Sprintf("sp: Get of token t%d that no Put published", tok))
		}
		merged = append(merged, ts.snap...)
	}
	st.ctx = m.pruneCtx(merged, t)
}

// joinCtx gives a join continuation the union of both branches'
// observed token sets: an edge into either branch orders its sources
// before everything after the join.
func (m *Monitor) joinCtx(lst, rst, cst *threadState) {
	switch {
	case len(lst.ctx) == 0:
		cst.ctx = rst.ctx
	case len(rst.ctx) == 0:
		cst.ctx = lst.ctx
	default:
		merged := make([]ThreadID, 0, len(lst.ctx)+len(rst.ctx))
		merged = append(append(merged, lst.ctx...), rst.ctx...)
		cst.ctx = m.pruneCtx(merged, NoThread)
	}
}

// pruneCtx reduces tokens to its SP-maximal subset, deduplicated, in
// ascending English order: a token SP-preceding another retained token
// adds no ordering information (everything it orders, the later token
// orders too). When cur is a begun thread rather than NoThread, tokens
// SP-preceding cur are dropped as well — the plain SP relation already
// orders everything they could. tokens must be a fresh slice, which
// pruneCtx sorts and compacts in place: never a ctx or snap, which fork
// children, join continuations and concurrent getters share.
//
// After sorting by English order, one walk from the English-last token
// suffices. The kept tokens form an antichain, so the last one kept
// (best, the English-first so far) is also the Hebrew-last, and a
// token SP-preceding any kept token English-after it precedes best
// (Lemma 1: it is English-before best, and Hebrew-before some token
// that is not Hebrew-after best). A token preceding a dropped token
// precedes whatever dropped that one. That is O(k log k) English
// comparisons and at most 2k SP queries for k tokens. Pruning and
// ordering queries are internal and not counted in Report.Queries.
func (m *Monitor) pruneCtx(tokens []ThreadID, cur ThreadID) []ThreadID {
	slices.SortFunc(tokens, func(a, b ThreadID) int {
		switch {
		case a == b:
			return 0
		case m.englishBefore(a, b):
			return -1
		default:
			return 1
		}
	})
	best, w := NoThread, len(tokens)
	for i := len(tokens) - 1; i >= 0; i-- {
		s := tokens[i]
		if s == best || (best != NoThread && m.pairPrecedes(s, best)) ||
			(cur != NoThread && m.pairPrecedes(s, cur)) {
			continue
		}
		w--
		tokens[w] = s
		best = s
	}
	// Copy the kept tail out rather than pin the whole candidate array:
	// a thread's state, token sets included, lives as long as the
	// Monitor.
	return slices.Clone(tokens[w:])
}

// englishBefore reports a <_E b for two begun threads, from the most
// direct exact source the backend offers: the English order-maintenance
// list (orderQuerier, sp-order), b's own query handle on backends whose
// handles answer the order queries exactly (ConcurrentQueries:
// sp-hybrid, depa), or otherwise the begin stamps, which number the
// threads of a serial event stream in English order. Like pairPrecedes
// it bypasses Monitor.Relation and counts toward no report.
func (m *Monitor) englishBefore(a, b ThreadID) bool {
	switch {
	case a == b:
		return false
	case m.orders != nil:
		return m.orders.EnglishBefore(a, b)
	case m.stampBegins:
		return m.state(a).engSeq < m.state(b).engSeq
	default:
		return m.state(b).rel.EnglishBeforeCurrent(a)
	}
}

// pairPrecedes answers a ≺ b in the strict SP relation for
// edge-composition purposes, routing to the serial mirror when the
// backend cannot answer arbitrary pairs. It calls the backend
// directly — never Monitor.Relation — so it is safe under m.mu and on
// the lock-free paths alike, and it does not count toward
// Report.Queries (the count must not depend on how many edge tokens a
// thread happens to carry).
func (m *Monitor) pairPrecedes(a, b ThreadID) bool {
	if a == b {
		return false
	}
	if m.mirror != nil {
		return m.mirror.Precedes(a, b)
	}
	return m.backend.Precedes(a, b)
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
func (r hbRel) edgeOrdered(prev ThreadID) bool {
	ctx := r.st.ctx
	i := sort.Search(len(ctx), func(i int) bool { return !r.m.englishBefore(ctx[i], prev) })
	return i < len(ctx) && (ctx[i] == prev || r.m.pairPrecedes(prev, ctx[i]))
}

func (r hbRel) PrecedesCurrent(prev ThreadID) bool {
	if r.inner.PrecedesCurrent(prev) {
		return true
	}
	return len(r.st.ctx) > 0 && r.edgeOrdered(prev)
}

func (r hbRel) ParallelCurrent(prev ThreadID) bool {
	if !r.inner.ParallelCurrent(prev) {
		return false
	}
	return len(r.st.ctx) == 0 || !r.edgeOrdered(prev)
}

func (r hbRel) EnglishBeforeCurrent(prev ThreadID) bool {
	return r.inner.EnglishBeforeCurrent(prev)
}

func (r hbRel) HebrewBeforeCurrent(prev ThreadID) bool {
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

// Acquire records that thread t locked mutex lock (reentrant).
func (m *Monitor) Acquire(t ThreadID, lock int) {
	st := m.state(t)
	if m.fastStructural {
		// held is only ever touched by t's own events, and t runs on
		// one goroutine at a time, so no lock is needed.
		m.checkLive(t, st, "Acquire")
		m.begin(t, st)
		if st.held == nil {
			st.held = map[int]int{}
		}
		st.held[lock]++
		if mx := m.mx; mx != nil {
			mx.evAcquire.Add(1)
		}
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkLive(t, st, "Acquire")
	m.begin(t, st)
	if m.trace != nil {
		m.flushTraceShards()
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
	if m.fastStructural {
		m.checkLive(t, st, "Release")
		m.begin(t, st)
		if st.held[lock] == 0 {
			panic(fmt.Sprintf("sp: release of unheld mutex m%d by thread t%d", lock, t))
		}
		st.held[lock]--
		if mx := m.mx; mx != nil {
			mx.evRelease.Add(1)
		}
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkLive(t, st, "Release")
	m.begin(t, st)
	if st.held[lock] == 0 {
		panic(fmt.Sprintf("sp: release of unheld mutex m%d by thread t%d", lock, t))
	}
	if m.trace != nil {
		m.flushTraceShards()
		m.trace.Release(int64(t), int64(lock))
	}
	st.held[lock]--
	if mx := m.mx; mx != nil {
		mx.evRelease.Add(1)
	}
}

// orderQuerier is the optional backend capability behind exact
// English/Hebrew order answers on the serialized access path: backends
// that maintain both orders (sp-order) implement it so that even
// concurrent-order event streams — which the Monitor serializes for
// them — keep the two-reader protocol complete.
type orderQuerier interface {
	// EnglishBefore reports a <_E b.
	EnglishBefore(a, b ThreadID) bool
	// HebrewBefore reports a <_H b.
	HebrewBefore(a, b ThreadID) bool
}

// relCur adapts the backend's by-ID query surface to the shadow
// protocol's current-thread view. It is the fallback when the backend
// does not hand out cached handles (HandleMaintainer). Its order
// answers come from the backend when it maintains both orders
// (orderQuerier); otherwise they use the serial-stream equivalence
// (every past thread is English-before the current one; Hebrew-before
// coincides with precedes), which is exact for the serial event order
// the remaining backends require anyway.
type relCur struct {
	m   *Monitor
	cur ThreadID
}

func (r relCur) PrecedesCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	return r.m.backend.Precedes(prev, r.cur)
}

func (r relCur) ParallelCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	return r.m.backend.Parallel(prev, r.cur)
}

func (r relCur) EnglishBeforeCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	if r.m.orders != nil {
		return r.m.orders.EnglishBefore(prev, r.cur)
	}
	return true
}

func (r relCur) HebrewBeforeCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	if r.m.orders != nil {
		return r.m.orders.HebrewBefore(prev, r.cur)
	}
	return r.m.backend.Precedes(prev, r.cur)
}

// access applies one memory access to the backend and, when race
// detection is on, to the shadow protocol.
func (m *Monitor) access(t ThreadID, st *threadState, addr uint64, write bool, site any) {
	if m.fastAccess {
		m.fastPath(t, st, addr, write, site)
		return
	}
	// Off the fast path, the global mutex is skipped only when the
	// backend answers queries lock-free AND no trace is being recorded:
	// a lock-aware monitor on a concurrent backend (fastAccess off,
	// lockFreeQ on) still delivers accesses concurrently, and the trace
	// encoder is not internally synchronized.
	if !m.lockFreeQ || m.trace != nil {
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
		mx.countAccess(false, write, idx)
	}
	if !m.raceDetect {
		return
	}
	if m.lockAware {
		m.lockAwareAccess(t, st, addr, write, site)
		return
	}
	var q int64
	// st.rel is always bound at thread creation: the backend's handle
	// (or by-ID adapter) wrapped in the edge composer.
	found := m.mem.AccessOrdered(addr, st.rel, t, site, write, &q)
	st.queries.Add(q)
	if mx := m.mx; mx != nil {
		mx.queries.Add(q)
	}
	if found != nil {
		m.emit(Race{
			Addr: addr, Kind: found.Kind,
			First: found.Prev, Second: t,
			FirstSite: found.PrevSite, SecondSite: site,
		})
	}
}

// fastPath is the sharded lock-free access path: thread state and the
// cached SP handle are read with atomic loads, and the only lock taken
// is the owning shadow-memory shard's. The global monitor mutex is
// touched exactly once per thread, for the idempotent Begin.
func (m *Monitor) fastPath(t ThreadID, st *threadState, addr uint64, write bool, site any) {
	m.checkLive(t, st, "access")
	if !st.begun.Load() {
		if m.fastStructural {
			m.begin(t, st)
		} else {
			m.mu.Lock()
			m.begin(t, st)
			m.mu.Unlock()
		}
	}
	st.accesses.Add(1)
	idx := m.mem.ShardIndex(addr)
	if mx := m.mx; mx != nil {
		mx.countAccess(true, write, idx)
	}
	sh := m.mem.Shard(idx)
	sh.Lock()
	sh.Hit()
	if m.traceShards != nil {
		if site != nil {
			m.traceShards[idx].Access(int64(t), addr, write, true, fmt.Sprint(site))
		} else {
			m.traceShards[idx].Access(int64(t), addr, write, false, "")
		}
		m.traceDirty[idx].Store(true)
	}
	if !m.raceDetect {
		sh.Unlock()
		return
	}
	var q int64
	found := shadow.OnAccessOrdered(sh.Cell(addr), st.rel, t, site, write, &q)
	sh.Unlock()
	st.queries.Add(q)
	if mx := m.mx; mx != nil {
		mx.queries.Add(q)
	}
	if found != nil {
		m.emit(Race{
			Addr: addr, Kind: found.Kind,
			First: found.Prev, Second: t,
			FirstSite: found.PrevSite, SecondSite: site,
		})
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
	rel := st.rel
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
		m.emit(Race{
			Addr: addr, Kind: kind,
			First: e.t, Second: t,
			FirstSite: e.site, SecondSite: site,
			FirstLocks: e.locks, SecondLocks: cur,
		})
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

// emit records a race in the owning race-log shard — the only
// synchronization on the emit path while nobody listens, so racy
// workloads on the access fast path no longer funnel every race through
// one global mutex. Once Races() has been called, the emit additionally
// claims every race of the shard not yet streamed, its own included
// (advancing the shard's streamed watermark under the shard lock, so the
// Races() catch-up scan and concurrent emits deliver each race exactly
// once), and streams them. A race detected after Report
// closed the shard — an access still in flight on a fast-path backend —
// lands in the shard's late list and counts as dropped.
func (m *Monitor) emit(r Race) {
	idx := m.mem.ShardIndex(r.Addr)
	sh := &m.raceShards[idx]
	sh.mu.Lock()
	sh.emitted++ // single source: every emit, races and late alike
	if sh.closed {
		sh.late = append(sh.late, r)
		sh.mu.Unlock()
		if mx := m.mx; mx != nil {
			mx.racesEmitted.Add(1)
			mx.racesDropped.Add(1)
			mx.raceShardEmits[idx].Add(1)
		}
		return
	}
	sh.races = append(sh.races, r)
	if mx := m.mx; mx != nil {
		mx.racesEmitted.Add(1)
		mx.raceShardEmits[idx].Add(1)
	}
	if !m.requested.Load() {
		sh.mu.Unlock()
		return
	}
	// Deliver the shard's whole unstreamed tail, not just r: races logged
	// before requested flipped may not have been caught up by Races()
	// yet, and advancing the watermark past them would lose them. Deliver
	// while still holding the shard lock so the stream preserves the
	// shard's detection order (lock order: race shard, then raceMu).
	for _, x := range sh.races[sh.streamed:] {
		m.deliver(x)
	}
	sh.streamed = len(sh.races)
	sh.mu.Unlock()
}

// deliver streams one race to the Races() channel: a direct non-blocking
// send while the stream is caught up, the unbounded backlog (drained in
// FIFO order by a pump goroutine) otherwise, so a race is never dropped.
// Callers may hold a race-shard lock; deliver takes only raceMu.
func (m *Monitor) deliver(r Race) {
	m.raceMu.Lock()
	defer m.raceMu.Unlock()
	if m.chClosed {
		// Unreachable for races claimed before their shard closed
		// (Report closes every shard before it closes the stream), but
		// kept as the send-on-closed-channel backstop.
		m.dropped.Add(1)
		return
	}
	if !m.pumping && len(m.backlog) == 0 {
		select {
		case m.raceCh <- r:
			return
		default:
		}
	}
	m.backlog = append(m.backlog, r)
	if !m.pumping {
		m.pumping = true
		go m.pump()
	}
}

// pump drains the race backlog into the stream with blocking sends. It
// exits when the backlog is empty, closing the channel if Report ran
// while the pump owned delivery.
func (m *Monitor) pump() {
	for {
		m.raceMu.Lock()
		if len(m.backlog) == 0 {
			m.pumping = false
			closing := m.streamClosed && !m.chClosed
			if closing {
				m.chClosed = true
			}
			m.backlog = nil
			m.raceMu.Unlock()
			if closing {
				close(m.raceCh)
			}
			return
		}
		r := m.backlog[0]
		m.backlog = m.backlog[1:]
		m.raceMu.Unlock()
		m.raceCh <- r
	}
}

// TraceErr returns the sticky error of the WithTrace recorder: nil
// when every record has reached the underlying writer, nil also when
// the Monitor records no trace. It flushes the staged and buffered
// stream first (as does Report), so an access that slipped past
// Report's finished check on a fast-path backend cannot leave its
// record stranded; check TraceErr after Report to confirm a complete
// trace.
func (m *Monitor) TraceErr() error {
	if m.trace == nil {
		return nil
	}
	m.flushTraceShards()
	return m.trace.Flush()
}

// Races returns the streaming race channel. Races are delivered as
// they are detected and never dropped: a slow receiver backs the
// stream up into an unbounded backlog, drained per shard in detection
// order. Races detected before the first Races() call are caught up
// here, shard by shard (a monitor whose Races() is never called keeps
// them in the sharded log only; no goroutine waits on an unread
// stream). The channel is closed once Report has run and every claimed
// race has been delivered — a monitor that detected more races than
// the stream buffer holds needs its channel drained for the close to
// happen.
func (m *Monitor) Races() <-chan Race {
	m.requested.Store(true)
	for i := range m.raceShards {
		sh := &m.raceShards[i]
		sh.mu.Lock()
		for _, r := range sh.races[sh.streamed:] {
			m.deliver(r)
		}
		sh.streamed = len(sh.races)
		sh.mu.Unlock()
	}
	m.raceMu.Lock()
	if m.streamClosed && !m.chClosed && !m.pumping && len(m.backlog) == 0 {
		m.chClosed = true
		close(m.raceCh)
	}
	m.raceMu.Unlock()
	return m.raceCh
}

// Relation returns the SP relationship between threads a and b. Both
// must have begun; for backends without FullQueries, b must be the
// currently executing thread.
func (m *Monitor) Relation(a, b ThreadID) Relation {
	if a == b {
		return Same
	}
	if !m.lockFreeQ {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.relQueries.Add(1)
	if m.backend.Precedes(a, b) {
		return Precedes
	}
	if m.backend.Parallel(a, b) {
		return Parallel
	}
	return Follows
}

// Precedes reports a ≺ b (same preconditions as Relation).
func (m *Monitor) Precedes(a, b ThreadID) bool { return m.Relation(a, b) == Precedes }

// Parallel reports a ∥ b (same preconditions as Relation).
func (m *Monitor) Parallel(a, b ThreadID) bool { return m.Relation(a, b) == Parallel }

// Report finalizes the run and returns the aggregate outcome. The
// Races() channel is closed (after any backlogged races drain); further
// events panic. Report may be called more than once.
func (m *Monitor) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished.Store(true)
	if m.trace != nil {
		m.flushTraceShards()
		m.trace.Flush()
	}
	// Close every race-log shard, then snapshot it: an emit racing this
	// loop either lands its race in the snapshot (it held the shard lock
	// first) or in the late list (counted as dropped). Closing all
	// shards before touching the stream state means no new race can be
	// claimed for the stream once streamClosed is set.
	// DroppedRaces is derived from the same per-shard snapshot as the
	// race list itself (late entries are exactly the post-close emits),
	// plus the deliver backstop — one layer, so the count can never
	// disagree with the races actually reported.
	var races []Race
	dropped := m.dropped.Load()
	for i := range m.raceShards {
		sh := &m.raceShards[i]
		sh.mu.Lock()
		sh.closed = true
		races = append(races, sh.races...)
		races = append(races, sh.late...)
		dropped += int64(len(sh.late))
		sh.mu.Unlock()
	}
	// With a backlog pending the close is deferred to the pump; with no
	// listener yet it is deferred to the first Races() call, which still
	// has to catch the stream up on the sharded log.
	m.raceMu.Lock()
	m.streamClosed = true
	if m.requested.Load() && !m.chClosed && !m.pumping && len(m.backlog) == 0 {
		m.chClosed = true
		close(m.raceCh)
	}
	m.raceMu.Unlock()
	locSet := map[uint64]bool{}
	for _, r := range races {
		locSet[r.Addr] = true
	}
	locs := make([]uint64, 0, len(locSet))
	for l := range locSet {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	threads := m.nthreads.Load()
	accesses, queries := int64(0), m.relQueries.Load()
	for i := int64(0); i < threads; i++ {
		if st := m.threads.Get(i); st != nil {
			accesses += st.accesses.Load()
			queries += st.queries.Load()
		}
	}
	return Report{
		Backend:      m.info.Name,
		Races:        races,
		Locations:    locs,
		Threads:      threads,
		Forks:        m.forks.Load(),
		Joins:        m.joins.Load(),
		Puts:         m.puts.Load(),
		Gets:         m.gets.Load(),
		Accesses:     accesses,
		Queries:      queries,
		DroppedRaces: dropped,
	}
}

// raceShardEmits snapshots the per-shard emit counters — one increment
// per emit, races and late alike, under the owning shard's lock. The
// reconciliation invariant (pinned by a regression test): their sum
// always equals len(Report().Races).
func (m *Monitor) raceShardEmits() []int64 {
	out := make([]int64, len(m.raceShards))
	for i := range m.raceShards {
		sh := &m.raceShards[i]
		sh.mu.Lock()
		out[i] = sh.emitted
		sh.mu.Unlock()
	}
	return out
}
