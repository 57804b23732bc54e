package spsync

import (
	"runtime"
	"sync"
	"time"

	"repro/sp"
)

// child is one outstanding spawn of a goroutine: the parent (or any
// later join point on the same goroutine) joins it once the spawned
// goroutine has terminated and published its final thread.
type child struct {
	done  chan struct{} // closed after final is published
	final sp.ThreadID   // the spawned branch's terminal thread, or sp.NoThread (see joinFinished)
}

// gstate is one goroutine's instrumentation state. It is owned by that
// goroutine alone — a thread's events are serial by definition — so no
// locking is needed beyond the registry that maps goroutine ids here.
type gstate struct {
	th       sp.Thread // current thread (maximal serial block)
	children []*child  // outstanding spawns, in spawn order (joined LIFO)
}

// goid returns the runtime's id for the calling goroutine, parsed from
// the "goroutine N [status]:" header runtime.Stack prints. This is the
// standard portable trick; ~1µs per call, which the per-goroutine
// lookup table amortizes into one map operation per event.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine ".
	var id int64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// gmap is the goroutine-id → *gstate registry, sharded to keep
// concurrent goroutines off one lock.
type gmap struct {
	shards [64]struct {
		mu sync.Mutex
		m  map[int64]*gstate
	}
}

func (g *gmap) shard(id int64) *struct {
	mu sync.Mutex
	m  map[int64]*gstate
} {
	return &g.shards[uint64(id)%uint64(len(g.shards))]
}

func (g *gmap) lookup(id int64) *gstate {
	sh := g.shard(id)
	sh.mu.Lock()
	st := sh.m[id]
	sh.mu.Unlock()
	return st
}

func (g *gmap) bind(id int64, st *gstate) {
	sh := g.shard(id)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = map[int64]*gstate{}
	}
	sh.m[id] = st
	sh.mu.Unlock()
}

func (g *gmap) unbind(id int64) {
	sh := g.shard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// cur returns the calling goroutine's state, or nil for goroutines the
// instrumentation did not spawn (their events are dropped and counted).
func (e *engine) cur() *gstate {
	return e.goroutines.lookup(goid())
}

// joinFinished joins the goroutine's outstanding children in reverse
// spawn order — the discipline that keeps every Join well nested: the
// goroutine's current thread is the terminal of the innermost
// outstanding fork's continuation branch, so the most recent child is
// the one whose fork the next Join must close. A child that does not
// terminate within the engine's grace window, or that terminated with
// no terminal thread, stops the walk; it and everything spawned before
// it stay logically parallel (sound: joins only ever remove
// parallelism).
//
// It returns g's thread once every child is joined. Otherwise g's thread
// ends the continuation of g's innermost open fork, not g's branch, and
// no well-nested Join can close the fork that spawned g: it returns
// sp.NoThread.
func (e *engine) joinFinished(g *gstate) sp.ThreadID {
	for len(g.children) > 0 {
		c := g.children[len(g.children)-1]
		final := sp.NoThread
		select {
		case <-c.done:
			final = c.final
		case <-time.After(e.grace):
		}
		if final == sp.NoThread {
			e.unjoined.Add(int64(len(g.children)))
			return sp.NoThread
		}
		g.children = g.children[:len(g.children)-1]
		g.th = e.mon.Thread(final).Join(g.th)
	}
	return g.th.ID()
}

// mon exposes the engine's monitor for the exported query helpers.
func (e *engine) monitor() *sp.Monitor { return e.mon }
