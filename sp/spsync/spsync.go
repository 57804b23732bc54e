// Package spsync is the runtime that auto-instrumented Go programs
// link against: drop-in replacements for `go` statements, channels,
// sync.Mutex, sync.RWMutex, and sync.WaitGroup, plus Read/Write access
// hooks, all reporting to one process-wide sp.Monitor. cmd/spinstrument
// rewrites a package's source onto this surface; the rewritten program
// still builds with plain `go build` and behaves identically, but every
// fork, join, channel operation, lock operation, and shared-memory
// access is announced to the series-parallel maintainer as it happens.
//
// # Model mapping
//
// The sp event model is strict binary fork-join (Bender et al., SPAA
// 2004): Fork ends the parent's serial block and creates spawned ∥
// continuation, and Join must merge the terminals of the two branches
// of one fork (joins are well nested). Go's concurrency is mapped onto
// it as follows:
//
//   - Go(fn) — the rewrite of a `go` statement — forks the calling
//     goroutine's current thread: the spawned goroutine runs the left
//     branch, the caller continues on the right. Each goroutine keeps a
//     LIFO stack of its outstanding spawns.
//   - WaitGroup.Wait, after the real sync.WaitGroup.Wait returns, joins
//     the calling goroutine's finished children in reverse spawn order
//     (innermost fork first), which keeps every Join well nested. A
//     child that has not terminated shortly after Wait returns (it was
//     not part of this WaitGroup) stops the joining; it and any
//     children spawned before it simply remain logically parallel —
//     sound for race detection, never unsound.
//   - WaitGroup.Done publishes a sync-object edge (a Put of the
//     caller's history onto the group) before decrementing, and Wait
//     observes every published edge (a Get) after the counter drains —
//     so a Wait on a goroutine that spawned none of the workers still
//     orders their work before it, matching the real WaitGroup's
//     memory-model guarantee.
//   - Chan[T] — the rewrite of `chan T` — records the Go memory
//     model's channel edges the same way: the sender Puts before each
//     send and the receiver Gets; unbuffered channels, slot reuse in
//     buffered channels, and close→receive add the reverse edges. See
//     the Chan type.
//   - Mutex/RWMutex emit Acquire/Release inside the real critical
//     section. Instrumented monitors default to the lock-aware
//     ALL-SETS protocol, so lock-protected sharing is not reported —
//     matching the verdict of Go's own happens-before race detector.
//     RLock is modeled as acquiring the same lock as Lock: parallel
//     readers never race anyway, and a reader-vs-writer pair shares
//     the lock, so neither model reports it.
//
// A Put/Get edge is an empty fork-join diamond plus a monitor-level
// happens-before set (see package sp, "Sync-object edges"), so the SP
// relation itself stays strict fork-join and every backend handles the
// edges. Synchronization this package does NOT model — select,
// sync.Once, sync.Cond, atomics — contributes no edges: accesses
// ordered only by such primitives remain logically parallel and are
// reported. That is the determinacy-race reading (the pair races in
// SOME scheduling of the same fork-join structure) and is exactly what
// the differential corpus encodes; see the README's limitations table.
//
// Serialize mode runs spawns inline and depth-first, so a channel
// receive can only be satisfied by values already sent: serialized
// channel programs must be topologically serializable (buffered
// channels with enough capacity, producers spawned before their
// consumers), or they deadlock just as the uninstrumented program
// would under GOMAXPROCS=1 cooperative scheduling of that order.
//
// # Process lifecycle
//
// The rewriter injects `defer spsync.Main()()` at the top of func main.
// Main binds the main goroutine to the monitor's main thread and
// returns the shutdown hook, which joins any remaining finished
// children, finalizes the monitor, writes the JSON report (SPSYNC_REPORT
// path, or a one-line summary to stderr), and flushes the recorded
// trace (SPSYNC_TRACE), if any. Goroutines still running at exit are
// not joined; programs should quiesce (Wait) before returning from
// main, or their late events are dropped and counted in the report.
//
// # Environment
//
//	SPSYNC_BACKEND    sp backend name (default "sp-hybrid")
//	SPSYNC_LOCKAWARE  "0" disables the ALL-SETS protocol (default on)
//	SPSYNC_REPORT     path for the JSON report (default: stderr summary)
//	SPSYNC_TRACE      path to record the run as an SPTR trace
//	SPSYNC_SERIALIZE  "1" runs spawns inline, depth-first (serial
//	                  elision): the schedule is deterministic and the
//	                  recorded trace is in serial English order, so it
//	                  replays on every registered backend
//	SPSYNC_JOIN_GRACE grace to wait for a child at a join point
//	                  (Go duration, default 1s)
package spsync

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/sp"
)

// engine is the process-wide instrumentation state. It is a struct so
// tests can construct fresh instances; instrumented programs only ever
// touch the package-level default through the exported functions.
type engine struct {
	mon           *sp.Monitor
	serialize     bool
	lockAwareFlag bool
	grace         time.Duration

	traceFile *os.File
	tracePath string

	reportPath string

	goroutines table[*gstate] // goroutine key (gkey) → its state

	addrs addrMap // raw address → dense location id

	locks atomic.Int64 // lock-id allocator (ids start at 1)

	orphans    atomic.Int64 // events dropped: goroutine not spawned via Go
	unjoined   atomic.Int64 // children left unjoined at join points
	unjoinable atomic.Int64 // sync-object edges lost to an unmonitored endpoint

	shutdown sync.Once
}

var (
	defaultMu  sync.Mutex
	defaultEng atomic.Pointer[engine]
)

// Options configures an engine explicitly; the zero value plus Env()
// reproduces the environment-driven defaults instrumented binaries use.
type Options struct {
	// Backend is the sp backend registry name (default "sp-hybrid").
	Backend string
	// LockAware selects the ALL-SETS protocol (default true; required
	// for the verdict to match a happens-before detector on programs
	// that synchronize with mutexes).
	LockAware bool
	// Serialize runs every Go spawn inline, depth-first.
	Serialize bool
	// JoinGrace bounds how long a join point waits for a child that has
	// not yet terminated (default 1s).
	JoinGrace time.Duration
	// ReportPath, if non-empty, receives the JSON report on shutdown.
	ReportPath string
	// TracePath, if non-empty, records the run as an SPTR trace.
	TracePath string
}

// Env returns the Options an instrumented binary derives from its
// SPSYNC_* environment.
func Env() Options {
	opt := Options{
		Backend:    os.Getenv("SPSYNC_BACKEND"),
		LockAware:  os.Getenv("SPSYNC_LOCKAWARE") != "0",
		Serialize:  os.Getenv("SPSYNC_SERIALIZE") == "1",
		ReportPath: os.Getenv("SPSYNC_REPORT"),
		TracePath:  os.Getenv("SPSYNC_TRACE"),
		JoinGrace:  time.Second,
	}
	if opt.Backend == "" {
		opt.Backend = "sp-hybrid"
	}
	if g := os.Getenv("SPSYNC_JOIN_GRACE"); g != "" {
		if d, err := time.ParseDuration(g); err == nil && d > 0 {
			opt.JoinGrace = d
		}
	}
	return opt
}

// newEngine builds an engine and its monitor. It fails only on an
// unknown backend or an unwritable trace path.
func newEngine(opt Options) (*engine, error) {
	if opt.Backend == "" {
		opt.Backend = "sp-hybrid"
	}
	if opt.JoinGrace <= 0 {
		opt.JoinGrace = time.Second
	}
	e := &engine{
		serialize:     opt.Serialize,
		lockAwareFlag: opt.LockAware,
		grace:         opt.JoinGrace,
		reportPath:    opt.ReportPath,
		tracePath:     opt.TracePath,
	}
	mopts := []sp.Option{sp.WithBackend(opt.Backend)}
	if opt.LockAware {
		mopts = append(mopts, sp.WithLockAwareness(true))
	}
	if opt.TracePath != "" {
		f, err := os.Create(opt.TracePath)
		if err != nil {
			return nil, fmt.Errorf("spsync: trace file: %w", err)
		}
		e.traceFile = f
		mopts = append(mopts, sp.WithTrace(f))
	}
	m, err := sp.NewMonitor(mopts...)
	if err != nil {
		if e.traceFile != nil {
			e.traceFile.Close()
		}
		return nil, err
	}
	e.mon = m
	return e, nil
}

// current returns the process engine, lazily initializing it from the
// environment — so a library package instrumented without a rewritten
// main still reports, just without the shutdown hook.
func current() *engine {
	if e := defaultEng.Load(); e != nil {
		return e
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if e := defaultEng.Load(); e != nil {
		return e
	}
	e, err := newEngine(Env())
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsync:", err)
		os.Exit(2)
	}
	defaultEng.Store(e)
	return e
}

// Main initializes the engine from the environment, binds the calling
// goroutine to the monitor's main thread, and returns the shutdown
// hook, which also undoes that binding. The rewriter injects
// `defer spsync.Main()()` as func main's first statement; calling the
// hook more than once is harmless.
func Main() func() {
	e := current()
	k := gkey()
	if e.goroutines.get(k) != nil {
		return e.finish
	}
	e.goroutines.put(k, &gstate{th: e.mon.Thread(e.mon.Main())})
	return func() {
		e.finish()
		e.goroutines.del(k)
	}
}

// finish joins what can be joined, finalizes the monitor, and emits the
// report and trace exactly once.
func (e *engine) finish() {
	e.shutdown.Do(func() {
		if g := e.cur(); g != nil {
			e.joinFinished(g)
		}
		rep := e.mon.Report()
		var traceErr error
		if e.traceFile != nil {
			traceErr = e.mon.TraceErr()
			if cerr := e.traceFile.Close(); traceErr == nil {
				traceErr = cerr
			}
		}
		e.emitReport(rep, traceErr)
	})
}

// lockID allocates a fresh monitor lock id (they start at 1; 0 means
// unassigned in the wrappers' lazy CAS).
func (e *engine) lockID() int64 { return e.locks.Add(1) }
