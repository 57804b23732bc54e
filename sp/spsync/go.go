package spsync

// Go is the rewrite target of a `go` statement: it forks the calling
// goroutine's current thread, runs fn as the spawned (left) branch, and
// continues the caller on the continuation (right). cmd/spinstrument
// binds the original call's function and arguments to temporaries
// before calling Go, preserving the `go` statement's evaluate-then-spawn
// semantics.
//
// The spawned goroutine's terminal thread is published when fn returns,
// and the spawn is pushed on the caller's LIFO child stack so a later
// WaitGroup.Wait (or process shutdown) on this goroutine can close the
// fork with a well-nested Join. A spawned goroutine that returns while
// children of its own stay unjoined has no terminal thread; its fork is
// never closed and it stays parallel with the caller's continuation.
//
// In serialize mode (SPSYNC_SERIALIZE=1) fn runs inline, to completion,
// before Go returns — the serial elision of the fork-join program. The
// monitor sees the identical fork/join structure in serial depth-first
// (English) order, which every registered backend accepts, and the
// schedule is deterministic, so serialized recordings are reproducible
// byte for byte.
//
// A call from a goroutine unknown to the instrumentation (one spawned
// by a non-rewritten `go` statement) degrades to a plain `go fn()`; the
// skipped fork is counted in the report's orphan tally.
func Go(fn func()) {
	e := current()
	g := e.cur()
	if g == nil {
		e.orphans.Add(1)
		go fn()
		return
	}
	left, right := g.th.Fork()
	c := &child{done: make(chan struct{})}
	g.children = append(g.children, c)
	g.th = right

	if e.serialize {
		// Serial elision: become the child on this very goroutine, with
		// a fresh child frame, then restore the continuation.
		saved := g.th
		savedChildren := g.children
		g.th, g.children = left, nil
		defer func() {
			c.final = e.joinFinished(g) // close any forks the child left open
			g.th, g.children = saved, savedChildren
			close(c.done)
		}()
		fn()
		return
	}

	go func() {
		k := gkey()
		cg := &gstate{th: left}
		e.goroutines.put(k, cg)
		defer func() {
			c.final = e.joinFinished(cg)
			e.goroutines.del(k)
			close(c.done)
		}()
		fn()
	}()
}
