package trace

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

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
// Errors are sticky: after the first failure every Apply returns it.
//
// Replay is the whole-trace convenience; long-running ingestion (an
// sptraced stream arriving over a socket) drives an Applier one event
// at a time and can report progress, enforce limits, and snapshot the
// monitor between events.
type Applier struct {
	m    *sp.Monitor
	live int // 1 + forks - joins; a Put retires one thread and starts another
	n    int64
	err  error
	// site is the last access site handed to the monitor, boxed once:
	// consecutive accesses at one site, such as one statement's reads,
	// share the box.
	site any
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

// Apply applies ev to the monitor. A rejected event — one the Monitor
// refuses, or one that trips a backend (e.g. a concurrent-order trace
// applied to a serial backend) — surfaces as an error, not a crash.
func (a *Applier) Apply(ev Event) (err error) {
	if a.err != nil {
		return a.err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trace: event %d (%s): %v", a.n, ev, p)
		}
		a.err = err
	}()
	switch ev.Op {
	case Fork:
		a.m.Fork(ev.Parent)
		a.live++
	case Join:
		a.m.Join(ev.Left, ev.Right)
		a.live--
	case Begin:
		a.m.Begin(ev.Thread)
	case Read, Write:
		switch {
		case ev.Op == Read && ev.HasSite:
			a.m.ReadAt(ev.Thread, ev.Addr, a.boxSite(ev.Site))
		case ev.Op == Read:
			a.m.Read(ev.Thread, ev.Addr)
		case ev.HasSite:
			a.m.WriteAt(ev.Thread, ev.Addr, a.boxSite(ev.Site))
		default:
			a.m.Write(ev.Thread, ev.Addr)
		}
	case Put:
		a.m.Put(ev.Thread)
	case Get:
		a.m.Get(ev.Thread, ev.Tokens...)
	case Acquire:
		a.m.Acquire(ev.Thread, ev.Lock)
	case Release:
		a.m.Release(ev.Thread, ev.Lock)
	default:
		return fmt.Errorf("trace: event %d (%s): unexpected op", a.n, ev)
	}
	a.n++
	return nil
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
		ev, rerr := rd.Next()
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("trace: event %d: %w", a.Applied(), rerr)
		}
		if err := a.Apply(ev); err != nil {
			return err
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
