package spsync

import (
	"sync"

	"repro/sp"
)

// envelope is what actually travels on the underlying Go channel: the
// user's value plus the sender's sync-object edge token (sp.NoThread
// when the sender was unmonitored). For unbuffered channels it also
// carries a reply channel returning the receiver's token, closing the
// edge in the other direction.
type envelope[T any] struct {
	val   T
	tok   sp.ThreadID
	reply chan sp.ThreadID
}

// Chan is the drop-in replacement for a Go channel of T that
// cmd/spinstrument substitutes for `chan T`: every send/receive pair
// additionally records the happens-before edges the Go memory model
// guarantees for channels, as Put/Get sync-object edges over the SP
// relation (the futures construction of Utterback, Agrawal, Fineman
// and Lee, "Efficient Race Detection with Futures", arXiv 1901.00622).
// Accesses ordered by a channel are therefore no longer reported as
// races.
//
// The modeled edges match https://go.dev/ref/mem:
//
//   - A send happens before the corresponding receive completes
//     (sender Puts before sending; receiver Gets the token).
//   - For unbuffered channels, the receive happens before the send
//     completes (the receiver Puts and replies; the sender Gets).
//   - For a channel of capacity C, the kth receive happens before the
//     (k+C)th send completes (receivers return their token with the
//     freed slot; the sender taking that slot Gets it).
//   - A close happens before a receive that observes the close (the
//     closer Puts; a receiver seeing ok=false Gets).
//
// A nil *Chan blocks forever, like a nil channel. Known divergences
// from builtin channels, pinned by the corpus and listed in the README:
// a send on a closed *buffered* Chan whose buffer stayed full blocks on
// the slot ticket instead of panicking, and Len does not count a value
// whose Send has taken a slot but not yet deposited the envelope.
type Chan[T any] struct {
	ch    chan envelope[T]
	freed chan sp.ThreadID // slot tickets, buffered channels only
	cap   int

	closeMu  sync.Mutex
	closeTok sp.ThreadID
}

// NewChan is the rewrite of make(chan T, capacity); NewChan[T](0) of
// make(chan T).
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 0 {
		panic("spsync: NewChan: negative capacity")
	}
	c := &Chan[T]{
		ch:       make(chan envelope[T], capacity),
		cap:      capacity,
		closeTok: sp.NoThread,
	}
	if capacity > 0 {
		// Prime one ticket per slot; a sender consumes a ticket, a
		// receiver returns one carrying its token, maintaining
		// tickets + envelopes == capacity.
		c.freed = make(chan sp.ThreadID, capacity)
		for i := 0; i < capacity; i++ {
			c.freed <- sp.NoThread
		}
	}
	return c
}

// putToken publishes the calling goroutine's history as a sync-object
// edge and returns its token. For an unmonitored goroutine the edge
// cannot be recorded: the token is sp.NoThread and the loss is counted
// in the report's unjoinable tally.
func putToken(e *engine) sp.ThreadID {
	g := e.cur()
	if g == nil {
		e.unjoinable.Add(1)
		return sp.NoThread
	}
	tok := g.th.ID()
	g.th = g.th.Put()
	return tok
}

// getToken joins the edge tok into the calling goroutine's history.
// Edges with an unmonitored endpoint (on either side) are dropped and
// counted.
func getToken(e *engine, tok sp.ThreadID) {
	if tok == sp.NoThread {
		return
	}
	g := e.cur()
	if g == nil {
		e.unjoinable.Add(1)
		return
	}
	g.th.Get(tok)
}

// Send is the rewrite of `c <- v`. It blocks exactly when the builtin
// send would (see the type comment for the closed-buffered divergence)
// and panics on send to a closed channel.
func (c *Chan[T]) Send(v T) {
	if c == nil {
		select {} // send on a nil channel blocks forever
	}
	e := current()
	if c.cap > 0 {
		getToken(e, <-c.freed) // the slot's previous receive happens before this send
		c.ch <- envelope[T]{val: v, tok: putToken(e)}
		return
	}
	env := envelope[T]{val: v, tok: putToken(e), reply: make(chan sp.ThreadID)}
	c.ch <- env
	getToken(e, <-env.reply) // the receive happens before the send completes
}

// Recv is the rewrite of `<-c`: it returns the zero value once the
// channel is closed and drained, like the builtin.
func (c *Chan[T]) Recv() T {
	v, _ := c.recv()
	return v
}

// Recv2 is the rewrite of `v, ok := <-c` and the basis of the range
// rewrite: ok is false once the channel is closed and drained.
func (c *Chan[T]) Recv2() (T, bool) {
	return c.recv()
}

func (c *Chan[T]) recv() (T, bool) {
	if c == nil {
		select {} // receive on a nil channel blocks forever
	}
	e := current()
	env, ok := <-c.ch
	if !ok {
		// The close happens before this receive observes it.
		c.closeMu.Lock()
		tok := c.closeTok
		c.closeMu.Unlock()
		getToken(e, tok)
		var zero T
		return zero, false
	}
	getToken(e, env.tok)
	if c.cap > 0 {
		c.freed <- putToken(e) // never blocks: the envelope freed a slot
	} else {
		env.reply <- putToken(e)
	}
	return env.val, true
}

// Close is the rewrite of close(c). It panics on a nil or already
// closed channel, like the builtin.
func (c *Chan[T]) Close() {
	if c == nil {
		panic("close of nil channel")
	}
	e := current()
	c.closeMu.Lock()
	c.closeTok = putToken(e)
	c.closeMu.Unlock()
	close(c.ch)
}

// Len is the rewrite of len(c): the number of values buffered and not
// yet received.
func (c *Chan[T]) Len() int {
	if c == nil {
		return 0
	}
	return len(c.ch)
}

// Cap is the rewrite of cap(c).
func (c *Chan[T]) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}
