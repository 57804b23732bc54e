package sp

// Thread is a cached per-thread handle: the Monitor's thread-state
// pointer and the backend's SP query handle ("label/bag reference"),
// resolved once instead of on every event. A goroutine monitoring its
// own serial block should obtain its Thread once and report events
// through it — on a lock-free Monitor (see Monitor) a handle's
// Read/Write touch only the shard owning the address, with no table
// lookup and no global mutex on the way.
//
// A Thread is a value; copies are equivalent. Like ThreadIDs, a handle
// is owned by the one goroutine executing the thread — events of one
// thread are serial by definition — while handles of different threads
// may be used fully concurrently. Handles stay valid for the thread's
// whole lifetime; events after the thread retires panic exactly as the
// ID-based surface does.
type Thread struct {
	m  *Monitor
	id ThreadID
	st *threadState
}

// Thread returns the cached handle for t, panicking on unknown IDs.
func (m *Monitor) Thread(t ThreadID) Thread {
	return Thread{m: m, id: t, st: m.state(t)}
}

// ID returns the thread's identifier.
func (th Thread) ID() ThreadID { return th.id }

// Monitor returns the monitor this handle reports to.
func (th Thread) Monitor() *Monitor { return th.m }

// Begin optionally announces the thread's first action (idempotent).
func (th Thread) Begin() { th.m.Begin(th.id) }

// Read records a shared-memory load at addr.
func (th Thread) Read(addr uint64) { th.m.access(th.id, th.st, addr, false, nil) }

// ReadAt is Read with an attached source site.
func (th Thread) ReadAt(addr uint64, site any) { th.m.access(th.id, th.st, addr, false, site) }

// Write records a shared-memory store at addr.
func (th Thread) Write(addr uint64) { th.m.access(th.id, th.st, addr, true, nil) }

// WriteAt is Write with an attached source site.
func (th Thread) WriteAt(addr uint64, site any) { th.m.access(th.id, th.st, addr, true, site) }

// Acquire records that the thread locked mutex lock (reentrant).
func (th Thread) Acquire(lock int) { th.m.Acquire(th.id, lock) }

// Release records that the thread unlocked mutex lock.
func (th Thread) Release(lock int) { th.m.Release(th.id, lock) }

// Fork ends the thread's serial block and returns handles for the
// spawned child and the continuation, which run logically in parallel.
func (th Thread) Fork() (left, right Thread) {
	l, r := th.m.Fork(th.id)
	return th.m.Thread(l), th.m.Thread(r)
}

// Join ends this thread and other — the terminals of the two branches
// of one fork — and returns the continuation's handle.
func (th Thread) Join(other Thread) Thread {
	return th.m.Thread(th.m.Join(th.id, other.id))
}

// Put publishes a sync-object edge and returns the continuation's
// handle. The token the matching Get needs is this handle's ID (read
// it BEFORE calling Put — the continuation has a fresh ID).
func (th Thread) Put() Thread {
	return th.m.Thread(th.m.Put(th.id))
}

// Get observes previously published sync-object edges; each token is
// the ID a Put retired.
func (th Thread) Get(tokens ...ThreadID) { th.m.Get(th.id, tokens...) }

// Relation returns the SP relationship of thread a to this thread.
// This is the query form every backend supports (a against the
// currently executing thread).
func (th Thread) Relation(a ThreadID) Relation { return th.m.Relation(a, th.id) }
