package trace

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/wire"
	"repro/sp"
)

// Applier applies a decoded event stream to monitor m one event at a
// time. m must be fresh (no events applied since NewMonitor), so that
// its dense thread-ID allocation reproduces the recorded IDs: every
// recorded thread descends from t0, so once m's main thread has forked
// or put, the stream's first event fails as not live. The Monitor
// validates every event (see Validation in the package documentation);
// the Applier turns its panic into an error naming the event, so
// hostile or corrupted traces cannot crash the applying process.
// Errors are sticky: after the first failure every Apply and ApplyNext
// returns it.
//
// Replay is the whole-trace convenience; long-running ingestion (an
// sptraced stream arriving over a socket) drives an Applier one record
// at a time with ApplyNext and can report progress, enforce limits, and
// snapshot the monitor between events. Apply applies an Event the
// caller holds, such as one from Reader.Next or ReadAll.
type Applier struct {
	m    *sp.Monitor
	live int // 1 + forks - joins; a Put retires one thread and starts another
	n    int64
	err  error
	// site is the last access site handed to the monitor, boxed once:
	// consecutive accesses at one site, such as one statement's reads,
	// share the box.
	site any
	// ids holds the tokens of the last Get ApplyNext applied, as thread
	// IDs: every Get reuses it, since the monitor keeps no tokens slice.
	ids []sp.ThreadID
}

// NewApplier returns an Applier feeding m, which must be fresh.
func NewApplier(m *sp.Monitor) *Applier { return &Applier{m: m, live: 1} }

// Applied returns the number of events applied so far.
func (a *Applier) Applied() int64 { return a.n }

// Live returns the number of currently live threads — the stream's
// instantaneous logical parallelism (1 before the first fork).
func (a *Applier) Live() int { return a.live }

// Err returns the sticky validation error, if any.
func (a *Applier) Err() error { return a.err }

// wireOp maps each event kind to the record opcode it decodes from.
var wireOp = [...]wire.Op{Fork: wire.OpFork, Join: wire.OpJoin, Begin: wire.OpBegin,
	Read: wire.OpRead, Write: wire.OpWrite, Acquire: wire.OpAcquire, Release: wire.OpRelease,
	Put: wire.OpPut, Get: wire.OpGet}

// Apply applies ev to the monitor. A rejected event — one the Monitor
// refuses, or one that trips a backend (e.g. a concurrent-order trace
// applied to a serial backend) — surfaces as an error, not a crash.
func (a *Applier) Apply(ev Event) error {
	if a.err != nil {
		return a.err
	}
	if ev.Op == 0 || int(ev.Op) >= len(wireOp) {
		a.err = fmt.Errorf("trace: event %d (%s): unexpected op", a.n, ev)
		return a.err
	}
	rec := wire.Event{Op: wireOp[ev.Op], T1: int64(ev.Thread), Addr: ev.Addr,
		Lock: int64(ev.Lock), Site: ev.Site, HasSite: ev.HasSite}
	switch ev.Op {
	case Fork:
		rec.T1 = int64(ev.Parent)
	case Join:
		rec.T1, rec.T2 = int64(ev.Left), int64(ev.Right)
	}
	if p := a.apply(&rec, ev.Tokens); p != nil {
		return a.fail(ev, p)
	}
	return nil
}

// ApplyNext decodes the next record from r and applies it where it
// lies, with no Event in between: the path Replay and sptraced take. It
// returns io.EOF at a clean end of trace; a decode error as Reader.Next
// returns it, leaving Err nil, so that the caller can name the event
// it failed at; or the error Apply would return for the record.
func (a *Applier) ApplyNext(r *Reader) error {
	if a.err != nil {
		return a.err
	}
	if err := r.decode(); err != nil {
		return err
	}
	rec := &r.rec
	var toks []sp.ThreadID
	if rec.Op == wire.OpGet {
		toks = a.ids[:0]
		for _, tok := range rec.Tokens {
			toks = append(toks, sp.ThreadID(tok))
		}
		a.ids = toks
	}
	if p := a.apply(rec, toks); p != nil {
		return a.fail(eventOf(rec), p)
	}
	return nil
}

// apply is the one dispatch of Apply and ApplyNext: it applies rec, with
// a Get's tokens in toks, and returns what the monitor panicked with,
// if it did.
func (a *Applier) apply(rec *wire.Event, toks []sp.ThreadID) (p any) {
	defer func() { p = recover() }()
	t := sp.ThreadID(rec.T1)
	switch rec.Op {
	case wire.OpFork:
		a.m.Fork(t)
		a.live++
	case wire.OpJoin:
		a.m.Join(t, sp.ThreadID(rec.T2))
		a.live--
	case wire.OpBegin:
		a.m.Begin(t)
	case wire.OpRead:
		if rec.HasSite {
			a.m.ReadAt(t, rec.Addr, a.boxSite(rec.Site))
		} else {
			a.m.Read(t, rec.Addr)
		}
	case wire.OpWrite:
		if rec.HasSite {
			a.m.WriteAt(t, rec.Addr, a.boxSite(rec.Site))
		} else {
			a.m.Write(t, rec.Addr)
		}
	case wire.OpPut:
		a.m.Put(t)
	case wire.OpGet:
		a.m.Get(t, toks...)
	case wire.OpAcquire:
		a.m.Acquire(t, int(rec.Lock))
	case wire.OpRelease:
		a.m.Release(t, int(rec.Lock))
	}
	a.n++
	return nil
}

// fail makes the monitor's panic p over event ev the sticky error.
func (a *Applier) fail(ev Event, p any) error {
	a.err = fmt.Errorf("trace: event %d (%s): %v", a.n, ev, p)
	return a.err
}

// boxSite returns site as the monitor's any, reusing the previous
// access's box when the site is the same.
func (a *Applier) boxSite(site string) any {
	if prev, ok := a.site.(string); !ok || prev != site {
		a.site = site
	}
	return a.site
}

// Replay reads the trace from r and feeds every event through monitor
// m, which must be fresh (see Applier).
//
// The backend must accept the trace's event order: any backend can
// replay a trace recorded from a serial execution, while traces
// recorded from live concurrent programs (which are merely
// creation-respecting) need an AnyOrder backend.
func Replay(r io.Reader, m *sp.Monitor) error {
	rd, err := NewReader(r)
	if err != nil {
		return err
	}
	a := NewApplier(m)
	for {
		switch err := a.ApplyNext(rd); {
		case err == nil:
		case err == io.EOF:
			return nil
		case a.Err() != nil:
			return err
		default:
			return fmt.Errorf("trace: event %d: %w", a.Applied(), err)
		}
	}
}

// ReplayBackend replays the in-memory trace through a fresh Monitor on
// the named backend (appended after opts, so it wins over any
// WithBackend among them) and returns the final report.
func ReplayBackend(data []byte, backend string, opts ...sp.Option) (sp.Report, error) {
	opts = append(append([]sp.Option(nil), opts...), sp.WithBackend(backend))
	m, err := sp.NewMonitor(opts...)
	if err != nil {
		return sp.Report{}, err
	}
	if err := Replay(bytes.NewReader(data), m); err != nil {
		return sp.Report{}, fmt.Errorf("%s: %w", backend, err)
	}
	return m.Report(), nil
}

// Signature renders the backend-independent content of a report in a
// deterministic text form: structural counters, the raced locations,
// and every race in detection order, one Race.AppendText line each
// (sites rendered as fmt.Sprint renders them, which makes a live report
// and its trace replay comparable — the replayed site is exactly the
// interned rendering of the live one). Two monitored runs of the same
// execution agree if and only if their signatures are equal. The
// backend name is excluded.
//
// The text is allocated once, at its exact size, so a report costs a
// few allocations however many races it holds. The races are rendered
// twice to get there, once to size the text and once to write it: a
// builder left to grow through a racy replay's megabytes of text leaves
// garbage several times their size, which can set the process's peak
// RSS, and copying as it grows takes longer than the second rendering.
func Signature(rep sp.Report) string {
	head := fmt.Appendf(nil, "threads=%d forks=%d joins=%d puts=%d gets=%d accesses=%d queries=%d\nlocations=[",
		rep.Threads, rep.Forks, rep.Joins, rep.Puts, rep.Gets, rep.Accesses, rep.Queries)
	// fmt would box each location as it prints the slice.
	for i, l := range rep.Locations {
		if i > 0 {
			head = append(head, ' ')
		}
		head = strconv.AppendUint(head, l, 10)
	}
	head = fmt.Appendf(head, "]\nraces=%d\n", len(rep.Races))
	var line []byte
	size := len(head)
	for _, r := range rep.Races {
		line, _ = r.AppendText(line[:0])
		size += len(line) + 1
	}
	var b strings.Builder
	b.Grow(size)
	b.Write(head)
	for _, r := range rep.Races {
		line, _ = r.AppendText(line[:0])
		line = append(line, '\n')
		b.Write(line)
	}
	return b.String()
}

// Differential replays one trace through every named backend (all
// registered backends when backends is nil) and checks that they
// produce identical signatures — the on-the-fly maintainers are
// interchangeable, so any divergence is a bug in a backend or in the
// trace pipeline. It returns the per-backend reports; the error names
// the first diverging backend and includes both signatures.
func Differential(data []byte, backends []string, opts ...sp.Option) (map[string]sp.Report, error) {
	if backends == nil {
		backends = sp.BackendNames()
	}
	reports := make(map[string]sp.Report, len(backends))
	var refName, refSig string
	for _, name := range backends {
		rep, err := ReplayBackend(data, name, opts...)
		if err != nil {
			return reports, err
		}
		reports[name] = rep
		sig := Signature(rep)
		if refName == "" {
			refName, refSig = name, sig
			continue
		}
		if sig != refSig {
			return reports, fmt.Errorf("trace: backend %s diverges from %s:\n--- %s ---\n%s--- %s ---\n%s",
				name, refName, refName, refSig, name, sig)
		}
	}
	return reports, nil
}
