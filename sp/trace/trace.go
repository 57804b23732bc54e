// Package trace records, replays, and analyzes sp.Monitor event
// streams as compact binary traces, giving an execution monitored once
// a durable form: it can be persisted, shared, diffed, re-analyzed
// under a different SP-maintenance backend, and used as a benchmark
// input — the missing layer between event generation and on-the-fly SP
// maintenance.
//
// # Format
//
// A trace is the 4-byte magic "SPTR", a uvarint format version
// (currently 2), and a flat stream of varint-encoded records, one per
// monitor event (see repro/internal/wire for the exact layout). Fork
// and Join records carry only their inputs; the thread IDs they create
// are implicit because a fresh Monitor allocates IDs densely in event
// order, so Replay reproduces them exactly. Version 2 adds the
// sync-object edge records Put and Get (a Put consumes three implicit
// IDs — its empty fork-join diamond); version-1 traces still decode. Access sites (the values
// passed to ReadAt/WriteAt) are rendered with fmt.Sprint and interned
// in an in-stream string table: the first use defines the string, and
// later accesses reference its index. Readers reject traces with a
// newer version than they understand; corrupted or truncated input
// yields an error, never a panic.
//
// # Validation
//
// A trace is untrusted input, and sp.Monitor is its only validator. It
// checks every event before applying it: the acting thread must be
// live (not unknown, not ended by a fork, join or put, and not one of
// a put's inner diamond threads), a join must end a fork's spawned
// branch and then that fork's continuation, a get's tokens must have
// been put, and a release must match a held lock. On a violation it
// panics without changing any state. Replay, the Applier and sptraced
// report that as an error naming the event, "trace: event N (<event>):
// <reason>", the same on every backend.
//
// # Recording and replaying
//
// Recording is a Monitor option:
//
//	var buf bytes.Buffer
//	m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithTrace(&buf))
//	// ... report events as usual ...
//	rep := m.Report() // flushes the trace; check m.TraceErr()
//
// Replay feeds a recorded stream back through any registered backend:
//
//	m2 := sp.MustMonitor(sp.WithBackend("sp-bags"))
//	err := trace.Replay(bytes.NewReader(buf.Bytes()), m2)
//	rep2 := m2.Report()
//
// A trace recorded from a serial execution (e.g. sp.Replay of a parse
// tree) is in serial depth-first order and replays through every
// backend; a trace recorded from a live concurrent program is merely
// creation-respecting, so it replays through the any-order backends
// (sp-order, sp-hybrid). Differential replays one trace through many
// backends and checks that they produce identical reports; Stat
// summarizes a trace without replaying it.
package trace

import (
	"fmt"
	"io"

	"repro/internal/wire"
	"repro/sp"
)

// Op identifies one event kind in a trace.
type Op uint8

// The event kinds. Site-carrying reads and writes decode as Read and
// Write with Event.HasSite set.
const (
	Fork Op = iota + 1
	Join
	Begin
	Read
	Write
	Acquire
	Release
	Put
	Get
)

// String names the op.
func (o Op) String() string {
	switch o {
	case Fork:
		return "fork"
	case Join:
		return "join"
	case Begin:
		return "begin"
	case Read:
		return "read"
	case Write:
		return "write"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	case Put:
		return "put"
	case Get:
		return "get"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one decoded trace record, mirroring the sp.Monitor call it
// was recorded from. Only the fields of its Op are meaningful.
type Event struct {
	Op Op
	// Parent is the forking thread (Fork).
	Parent sp.ThreadID
	// Left and Right are the joined threads (Join).
	Left, Right sp.ThreadID
	// Thread is the acting thread (Begin, Read, Write, Acquire,
	// Release, Put, Get).
	Thread sp.ThreadID
	// Addr is the accessed address (Read, Write).
	Addr uint64
	// Lock is the mutex (Acquire, Release).
	Lock int
	// Site and HasSite carry the access's interned site (Read, Write).
	Site    string
	HasSite bool
	// Tokens are the put-tokens a Get observes: the thread IDs the
	// matching Puts retired.
	Tokens []sp.ThreadID
}

// String renders the event in a compact one-line form.
func (ev Event) String() string {
	switch ev.Op {
	case Fork:
		return fmt.Sprintf("fork t%d", ev.Parent)
	case Join:
		return fmt.Sprintf("join t%d t%d", ev.Left, ev.Right)
	case Begin:
		return fmt.Sprintf("begin t%d", ev.Thread)
	case Read, Write:
		if ev.HasSite {
			return fmt.Sprintf("%s t%d x%d @%q", ev.Op, ev.Thread, ev.Addr, ev.Site)
		}
		return fmt.Sprintf("%s t%d x%d", ev.Op, ev.Thread, ev.Addr)
	case Acquire, Release:
		return fmt.Sprintf("%s t%d m%d", ev.Op, ev.Thread, ev.Lock)
	case Put:
		return fmt.Sprintf("put t%d", ev.Thread)
	case Get:
		s := fmt.Sprintf("get t%d", ev.Thread)
		for _, tok := range ev.Tokens {
			s += fmt.Sprintf(" t%d", tok)
		}
		return s
	default:
		return ev.Op.String()
	}
}

// Writer streams events to w in the binary trace format. It implements
// the same event vocabulary as sp.Monitor, so a trace can also be
// synthesized directly (e.g. by a generator or a trace rewriter)
// rather than recorded. Methods are safe for concurrent use; errors
// are sticky — check Err or the result of Flush.
type Writer struct {
	e *wire.Encoder
}

// NewWriter wraps w and writes the trace header immediately.
func NewWriter(w io.Writer) *Writer {
	return &Writer{e: wire.NewEncoder(w)}
}

// Fork records a Fork(parent) event.
func (w *Writer) Fork(parent sp.ThreadID) { w.e.Fork(int64(parent)) }

// Join records a Join(left, right) event.
func (w *Writer) Join(left, right sp.ThreadID) { w.e.Join(int64(left), int64(right)) }

// Begin records a Begin(t) event.
func (w *Writer) Begin(t sp.ThreadID) { w.e.Begin(int64(t)) }

// Read records a site-less read by t at addr.
func (w *Writer) Read(t sp.ThreadID, addr uint64) { w.e.Access(int64(t), addr, false, false, "") }

// ReadAt records a read by t at addr with an interned site string.
func (w *Writer) ReadAt(t sp.ThreadID, addr uint64, site string) {
	w.e.Access(int64(t), addr, false, true, site)
}

// Write records a site-less write by t at addr.
func (w *Writer) Write(t sp.ThreadID, addr uint64) { w.e.Access(int64(t), addr, true, false, "") }

// WriteAt records a write by t at addr with an interned site string.
func (w *Writer) WriteAt(t sp.ThreadID, addr uint64, site string) {
	w.e.Access(int64(t), addr, true, true, site)
}

// Put records a Put(t) event (the diamond's three created IDs are
// implicit, like Fork's and Join's).
func (w *Writer) Put(t sp.ThreadID) { w.e.Put(int64(t)) }

// Get records a Get(t, tokens...) event.
func (w *Writer) Get(t sp.ThreadID, tokens []sp.ThreadID) {
	toks := make([]int64, len(tokens))
	for i, tok := range tokens {
		toks[i] = int64(tok)
	}
	w.e.Get(int64(t), toks)
}

// Acquire records an Acquire(t, lock) event.
func (w *Writer) Acquire(t sp.ThreadID, lock int) { w.e.Acquire(int64(t), int64(lock)) }

// Release records a Release(t, lock) event.
func (w *Writer) Release(t sp.ThreadID, lock int) { w.e.Release(int64(t), int64(lock)) }

// WriteEvent records ev, dispatching on its Op. It returns an error
// only for an invalid Op; encoding errors stay sticky as usual.
func (w *Writer) WriteEvent(ev Event) error {
	switch ev.Op {
	case Fork:
		w.Fork(ev.Parent)
	case Join:
		w.Join(ev.Left, ev.Right)
	case Begin:
		w.Begin(ev.Thread)
	case Read:
		if ev.HasSite {
			w.ReadAt(ev.Thread, ev.Addr, ev.Site)
		} else {
			w.Read(ev.Thread, ev.Addr)
		}
	case Write:
		if ev.HasSite {
			w.WriteAt(ev.Thread, ev.Addr, ev.Site)
		} else {
			w.Write(ev.Thread, ev.Addr)
		}
	case Acquire:
		w.Acquire(ev.Thread, ev.Lock)
	case Release:
		w.Release(ev.Thread, ev.Lock)
	case Put:
		w.Put(ev.Thread)
	case Get:
		w.Get(ev.Thread, ev.Tokens)
	default:
		return fmt.Errorf("trace: cannot encode event with op %v", ev.Op)
	}
	return nil
}

// Flush drains buffered records to the underlying writer and returns
// the sticky error, if any.
func (w *Writer) Flush() error { return w.e.Flush() }

// Err returns the sticky encoding error.
func (w *Writer) Err() error { return w.e.Err() }

// Reader streams events from a binary trace. It is not safe for
// concurrent use.
type Reader struct {
	d *wire.Decoder
	// rec is the record last decoded: Next copies it out as an Event,
	// and Applier.ApplyNext applies it where it lies.
	rec wire.Event
}

// NewReader wraps r, validating the trace header. It rejects streams
// that do not start with the trace magic and versions newer than this
// package understands.
func NewReader(r io.Reader) (*Reader, error) {
	d, err := wire.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return &Reader{d: d}, nil
}

// Version returns the trace's format version.
func (r *Reader) Version() int { return r.d.Version() }

// SetMaxSite lowers the accepted site-string length below the format's
// built-in 1 MiB cap, bounding the per-record allocation a hostile
// stream can demand — servers ingesting traces from untrusted clients
// set this before the first Next. Values outside the valid range are
// ignored.
func (r *Reader) SetMaxSite(n int) { r.d.SetMaxString(n) }

// decode decodes the next record into r.rec.
func (r *Reader) decode() error {
	if err := r.d.Decode(&r.rec); err != nil {
		return err
	}
	if r.rec.Lock != int64(int(r.rec.Lock)) {
		return fmt.Errorf("trace: mutex id %d overflows int", r.rec.Lock)
	}
	return nil
}

// Next returns the next event, io.EOF at a clean end of trace, or an
// error describing the corruption. It never panics on hostile input.
// The event is the caller's: a Get's tokens survive later calls.
func (r *Reader) Next() (Event, error) {
	if err := r.decode(); err != nil {
		return Event{}, err
	}
	return eventOf(&r.rec), nil
}

// eventOf returns a decoded record as an Event, with a Get's tokens in
// a slice of their own.
func eventOf(rec *wire.Event) Event {
	t := sp.ThreadID(rec.T1)
	switch rec.Op {
	case wire.OpFork:
		return Event{Op: Fork, Parent: t}
	case wire.OpJoin:
		return Event{Op: Join, Left: t, Right: sp.ThreadID(rec.T2)}
	case wire.OpBegin:
		return Event{Op: Begin, Thread: t}
	case wire.OpRead, wire.OpWrite:
		op := Read
		if rec.Op == wire.OpWrite {
			op = Write
		}
		return Event{Op: op, Thread: t, Addr: rec.Addr, Site: rec.Site, HasSite: rec.HasSite}
	case wire.OpPut:
		return Event{Op: Put, Thread: t}
	case wire.OpGet:
		toks := make([]sp.ThreadID, len(rec.Tokens))
		for i, tok := range rec.Tokens {
			toks[i] = sp.ThreadID(tok)
		}
		return Event{Op: Get, Thread: t, Tokens: toks}
	case wire.OpAcquire:
		return Event{Op: Acquire, Thread: t, Lock: int(rec.Lock)}
	case wire.OpRelease:
		return Event{Op: Release, Thread: t, Lock: int(rec.Lock)}
	}
	return Event{} // the decoder yields no other opcode
}

// ReadAll decodes every event of the trace in data. It is a
// convenience for tools that need random access; streaming callers
// should use Reader.
func ReadAll(r io.Reader) ([]Event, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var evs []Event
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}
