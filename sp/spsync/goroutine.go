package spsync

import (
	"runtime"
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
// locking is needed beyond the registry that maps goroutine keys here.
type gstate struct {
	th       sp.Thread // current thread (maximal serial block)
	children []*child  // outstanding spawns, in spawn order (joined LIFO)
}

// cur returns the calling goroutine's state, or nil for goroutines the
// instrumentation did not spawn (their events are dropped and counted).
//
// Every spsync call starts here, so the lookup must be cheap. The
// registry is keyed by gkey(). On amd64 and arm64 that is the address
// of the runtime's g, the calling goroutine's descriptor, which a
// two-instruction assembly stub reads in about 2 ns (getg_amd64.s,
// getg_arm64.s). On other architectures it is goid(), which parses
// runtime.Stack: about 5 µs per call, measured on a 2-vCPU amd64 host.
//
// A g is a sound key while its goroutine runs: the collector never
// moves a g, and stack growth moves the stack, not the g. But a g is
// never freed either: the runtime hands an exited goroutine's g to a
// later goroutine. So that the later goroutine finds no stale binding,
// every bind is undone on the goroutine it bound before that goroutine
// ends: Go's wrapper unbinds in a deferred call, which runs on return,
// on runtime.Goexit and on panic alike; the hook Main returns unbinds,
// and the rewritten func main defers it; the tests' swapEngine restore
// unbinds.
func (e *engine) cur() *gstate {
	return e.goroutines.get(gkey())
}

// goid returns the runtime's id for the calling goroutine, parsed from
// the "goroutine N [status]:" header runtime.Stack prints. It is the
// registry key where no getg stub exists, and the tests' oracle for the
// g keys elsewhere.
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
