package traced

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	rtrace "runtime/trace"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sp"
	"repro/sp/metrics"
	"repro/sp/trace"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default applied by New. New rejects a negative MaxEvents,
// MaxBytes or ReadTimeout. Reports list the last recentStreams (64)
// completed streams, a bound no Config field sets.
type Config struct {
	// Backend is the SP-maintenance backend each stream's monitor runs
	// on (default "sp-order" — an any-order backend, so traces recorded
	// from live concurrent programs ingest as well as serial ones).
	Backend string
	// Workers bounds the ingestion worker pool: at most this many
	// streams are monitored concurrently; further accepted connections
	// queue (default NumCPU, minimum 2).
	Workers int
	// MaxStreams bounds accepted-but-unfinished streams (queued +
	// active). When the bound is reached the accept loop stops
	// accepting — backpressure surfaces to clients as connection delay,
	// never as a dropped stream (default 4×Workers).
	MaxStreams int
	// MaxEvents, MaxBytes, and MaxSiteLen are per-stream limits: a
	// stream exceeding one fails with a limit error without affecting
	// other streams (defaults 50M events, 1 GiB, 64 KiB).
	MaxEvents int64
	MaxBytes  int64
	// MaxSiteLen caps one interned site string (the largest single
	// record a client can send — the frame limit of the wire format).
	MaxSiteLen int
	// ReadTimeout is the per-read idle deadline on ingest connections:
	// a client that goes silent longer than this has its stream failed
	// as stalled (default 30s).
	ReadTimeout time.Duration
}

// recentStreams bounds the ring of completed streams kept for reports.
const recentStreams = 64

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = "sp-order"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers < 2 {
		c.Workers = 2
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 4 * c.Workers
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 50_000_000
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 1 << 30
	}
	if c.MaxSiteLen <= 0 {
		c.MaxSiteLen = 64 << 10
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	return c
}

// StreamSummary is the outcome of one ingested stream: the per-stream
// ack written back to the client and the per-stream entry in reports.
type StreamSummary struct {
	ID    uint64 `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"` // "active", "ok", or "failed"
	Error string `json:"error,omitempty"`
	// Events counts applied events; Bytes counts consumed trace bytes.
	// EventsPerSec is the stream's whole-life ingestion rate, computed
	// at finish (0 while active or for empty streams).
	Events       int64   `json:"events"`
	Bytes        int64   `json:"bytes"`
	EventsPerSec float64 `json:"eventsPerSec,omitempty"`
	// Threads and PeakParallel summarize the stream's execution.
	Threads      int64 `json:"threads"`
	PeakParallel int64 `json:"peakParallel"`
	// Races counts this stream's race observations (before fleet-wide
	// deduplication). It is set when the stream finishes, when its races
	// fold into the fleet table, and reads 0 while the stream is active.
	Races      int64     `json:"races"`
	StartedAt  time.Time `json:"startedAt"`
	FinishedAt time.Time `json:"finishedAt,omitzero"`
}

// stream is one in-flight ingestion's accounting. The counters are
// atomics because report snapshots read them while the ingest loop
// writes them.
type stream struct {
	id      uint64
	name    string
	started time.Time
	events  atomic.Int64
	bytes   atomic.Int64
	races   atomic.Int64
	peak    atomic.Int64
}

func (st *stream) summary(state string, err error) StreamSummary {
	s := StreamSummary{
		ID: st.id, Name: st.name, State: state,
		Events: st.events.Load(), Bytes: st.bytes.Load(),
		PeakParallel: st.peak.Load(), Races: st.races.Load(),
		StartedAt: st.started,
	}
	if err != nil {
		s.Error = err.Error()
	}
	return s
}

// Server ingests SPTR trace streams from many processes concurrently,
// monitors each with its own sp.Monitor, deduplicates detected races
// fleet-wide, and serves aggregate reports. Create one with New; run
// Serve on one or more listeners (TCP and unix sockets both work),
// mount HTTPHandler somewhere, and Shutdown to drain.
type Server struct {
	cfg   Config
	dedup *dedup
	reg   *metrics.Registry
	mx    serverMetrics
	rate  *metrics.Rate
	start time.Time

	busy atomic.Int64 // workers currently ingesting a stream

	mu        sync.Mutex
	nextID    uint64
	active    map[uint64]*stream
	recent    []StreamSummary // ring of completed streams, oldest first
	total     int64
	completed int64
	failed    int64
	peak      int64 // max PeakParallel across finished and live streams
	draining  bool
	listeners []net.Listener
	conns     map[net.Conn]struct{}

	jobs      chan net.Conn
	sem       chan struct{} // MaxStreams bound: accepted-but-unfinished
	drainCh   chan struct{} // closed when Shutdown begins; aborts sem waits
	acceptWG  sync.WaitGroup
	workerWG  sync.WaitGroup
	streamWG  sync.WaitGroup
	drain     sync.Once
	jobsClose sync.Once
}

// New validates cfg (unknown backends and negative limits fail here,
// not per stream) and starts the ingestion worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, ok := sp.Lookup(cfg.Backend); !ok {
		return nil, fmt.Errorf("traced: unknown backend %q (available: %v)", cfg.Backend, sp.BackendNames())
	}
	switch {
	case cfg.MaxEvents < 0:
		return nil, fmt.Errorf("traced: negative MaxEvents %d", cfg.MaxEvents)
	case cfg.MaxBytes < 0:
		return nil, fmt.Errorf("traced: negative MaxBytes %d", cfg.MaxBytes)
	case cfg.ReadTimeout < 0:
		return nil, fmt.Errorf("traced: negative ReadTimeout %v", cfg.ReadTimeout)
	}
	s := &Server{
		cfg:     cfg,
		dedup:   newDedup(),
		start:   time.Now(),
		active:  map[uint64]*stream{},
		conns:   map[net.Conn]struct{}{},
		jobs:    make(chan net.Conn, cfg.MaxStreams),
		sem:     make(chan struct{}, cfg.MaxStreams),
		drainCh: make(chan struct{}),
	}
	s.instrument(metrics.NewRegistry())
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Serve accepts ingest connections on l until the listener fails or
// Shutdown closes it, then returns. It may be called concurrently for
// several listeners (e.g. one TCP, one unix socket). Accepted
// connections are sharded across the bounded worker pool; when
// MaxStreams connections are in flight the loop stops accepting until
// one finishes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return errors.New("traced: server is draining")
	}
	s.listeners = append(s.listeners, l)
	s.acceptWG.Add(1)
	s.mu.Unlock()
	defer s.acceptWG.Done()
	for {
		select {
		case s.sem <- struct{}{}: // a stream slot is free
		default:
			// Backpressure: the fleet is at MaxStreams. Count and time
			// the stall — sustained accept waits are the capacity signal.
			s.mx.acceptWaits.Add(1)
			waitStart := time.Now()
			select {
			case s.sem <- struct{}{}:
				s.mx.acceptWaitNs.Observe(time.Since(waitStart).Nanoseconds())
			case <-s.drainCh: // a full fleet must not stall the drain
				return nil
			}
		}
		c, err := l.Accept()
		if err != nil {
			<-s.sem
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			<-s.sem
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.jobs <- c // cannot block: jobs capacity == sem capacity
	}
}

// worker drains the accepted-connection queue, one stream at a time.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for c := range s.jobs {
		n := s.busy.Add(1)
		s.mx.workersBusy.Set(float64(n))
		s.mx.workersBusyHW.SetMax(float64(n))
		s.serveConn(c)
		s.mx.workersBusy.Set(float64(s.busy.Add(-1)))
		<-s.sem
	}
}

// handshakeLimit bounds the ingest hello line.
const handshakeLimit = 256

// readHandshake consumes the "SPTRD/1 <name>\n" hello from br and
// returns the client-chosen stream name (possibly empty).
func readHandshake(br *bufio.Reader) (string, error) {
	line := make([]byte, 0, 64)
	for {
		b, err := br.ReadByte()
		if err != nil {
			return "", fmt.Errorf("traced: reading handshake: %w", err)
		}
		if b == '\n' {
			break
		}
		line = append(line, b)
		if len(line) > handshakeLimit {
			return "", fmt.Errorf("traced: handshake line exceeds %d bytes", handshakeLimit)
		}
	}
	text := strings.TrimRight(string(line), "\r")
	proto, name, _ := strings.Cut(text, " ")
	if proto != ProtoHello {
		return "", fmt.Errorf("traced: bad handshake %q (want %q)", proto, ProtoHello)
	}
	return cleanName(name), nil
}

// cleanName sanitizes a client-supplied stream name for reports.
func cleanName(name string) string {
	name = strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return -1
		}
		return r
	}, name)
	if len(name) > 128 {
		name = name[:128]
	}
	return name
}

// serveConn runs the whole life of one ingest connection: handshake,
// stream ingestion, and the JSON ack line.
func (s *Server) serveConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(deadlineReader{c, s.cfg.ReadTimeout})
	name, err := readHandshake(br)
	var sum StreamSummary
	if err != nil {
		// A connection that cannot even say hello still counts as a
		// failed stream, so floods are visible in the report.
		st := s.startStream(c.RemoteAddr().String())
		sum = s.finishStream(st, err)
	} else {
		if name == "" {
			name = c.RemoteAddr().String()
		}
		sum = s.IngestTrace(name, br)
	}
	c.SetWriteDeadline(time.Now().Add(s.cfg.ReadTimeout))
	writeAck(c, sum)
	// A failed stream usually has unread bytes in flight; closing with
	// them pending can reset the connection and discard the ack before
	// the client reads it. Drain a bounded amount, briefly.
	c.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	io.CopyN(io.Discard, c, 1<<20)
}

// deadlineReader arms the connection's read deadline before every read,
// so the idle timeout applies per read, not per stream.
type deadlineReader struct {
	c net.Conn
	d time.Duration
}

func (r deadlineReader) Read(p []byte) (int, error) {
	if r.d > 0 {
		r.c.SetReadDeadline(time.Now().Add(r.d))
	}
	return r.c.Read(p)
}

// startStream registers a new active stream.
func (s *Server) startStream(name string) *stream {
	s.mu.Lock()
	s.nextID++
	st := &stream{id: s.nextID, name: name, started: time.Now()}
	s.active[st.id] = st
	s.total++
	s.mu.Unlock()
	s.streamWG.Add(1)
	return st
}

// finishStream retires st with the given failure (nil for success),
// folds its peak parallelism into the fleet maximum, and records its
// summary in the recent ring.
func (s *Server) finishStream(st *stream, err error) StreamSummary {
	state := "ok"
	if err != nil {
		state = "failed"
	}
	sum := st.summary(state, err)
	sum.FinishedAt = time.Now()
	if dur := sum.FinishedAt.Sub(sum.StartedAt); dur > 0 && sum.Events > 0 {
		sum.EventsPerSec = float64(sum.Events) / dur.Seconds()
		s.mx.streamNsPerEvent.Observe(dur.Nanoseconds() / sum.Events)
	}
	s.mx.streamEvents.Observe(sum.Events)
	if err != nil {
		s.mx.streamsFailed.Add(1)
	} else {
		s.mx.streamsOK.Add(1)
	}
	s.mu.Lock()
	delete(s.active, st.id)
	if err != nil {
		s.failed++
	} else {
		s.completed++
	}
	if p := sum.PeakParallel; p > s.peak {
		s.peak = p
	}
	s.recent = append(s.recent, sum)
	if len(s.recent) > recentStreams {
		s.recent = s.recent[1:]
	}
	s.mu.Unlock()
	s.streamWG.Done()
	return sum
}

// errLimit marks per-stream resource-limit failures.
var errLimit = errors.New("stream limit exceeded")

// IngestTrace ingests one SPTR stream from r under the stream name:
// the path shared by socket connections, batch-replayed trace files,
// and tests. It always returns a summary — malformed, truncated, or
// over-limit input fails the stream (with its partial results kept and
// flagged) and never affects other streams or the server. The races
// the stream's monitor detected, those found before a failure
// included, fold into the fleet-wide dedup table once, when the stream
// finishes: live reports see a stream's races from then on.
func (s *Server) IngestTrace(name string, r io.Reader) StreamSummary {
	st := s.startStream(cleanName(name))
	err := s.ingest(st, r)
	return s.finishStream(st, err)
}

// streamWorkers sizes each stream monitor's shadow memory
// (sp.WithWorkers): one stream is one recorded execution, replayed by
// one worker.
const streamWorkers = 2

// ingestFlush is how often the ingest loop folds its local event count
// into the shared meters — frequent enough for live reports, rare
// enough to keep the hot loop free of shared atomics.
const ingestFlush = 1 << 12

func (s *Server) ingest(st *stream, r io.Reader) error {
	// The region brackets one stream's whole ingestion in the runtime
	// execution tracer (curl /debug/pprof/trace on the debug listener),
	// so scheduler-level stalls are attributable to streams.
	defer rtrace.StartRegion(context.Background(), "traced.ingest").End()
	lim := io.LimitReader(r, s.cfg.MaxBytes+1)
	counted := &countingReader{r: lim}
	rd, err := trace.NewReader(counted)
	if err != nil {
		st.bytes.Store(counted.n)
		return err
	}
	rd.SetMaxSite(s.cfg.MaxSiteLen)
	m, err := sp.NewMonitor(sp.WithBackend(s.cfg.Backend), sp.WithWorkers(streamWorkers), sp.WithMetrics(s.reg))
	if err != nil {
		return err
	}
	a := trace.NewApplier(m)
	var pending, flushedBytes int64
	flush := func() {
		if pending > 0 {
			s.mx.events.Add(pending)
			st.events.Add(pending)
			s.rate.Add(pending)
			st.bytes.Store(counted.n)
			pending = 0
		}
		if d := counted.n - flushedBytes; d > 0 {
			s.mx.bytes.Add(d)
			flushedBytes = counted.n
		}
	}
	var ingestErr error
	for {
		err := a.ApplyNext(rd)
		if err == io.EOF {
			if counted.n > s.cfg.MaxBytes {
				ingestErr = fmt.Errorf("traced: %w: stream exceeds %d bytes", errLimit, s.cfg.MaxBytes)
			}
			break
		}
		if err != nil {
			// A decode error leaves the Applier's Err nil; a rejected
			// event already names itself.
			if a.Err() == nil {
				err = fmt.Errorf("traced: event %d: %w", a.Applied(), err)
			}
			ingestErr = err
			break
		}
		pending++
		if live := int64(a.Live()); live > st.peak.Load() {
			st.peak.Store(live)
		}
		if pending >= ingestFlush {
			flush()
		}
		if a.Applied() >= s.cfg.MaxEvents {
			ingestErr = fmt.Errorf("traced: %w: stream exceeds %d events", errLimit, s.cfg.MaxEvents)
			break
		}
	}
	flush()
	// The stream's races, a failed stream's partial ones included, reach
	// the fleet table once: one fold per stream, however many races it
	// logged.
	rep := m.Report()
	s.dedup.Fold(st.name, rep.Races, time.Now())
	n := int64(len(rep.Races))
	s.mx.racesObserved.Add(n)
	st.races.Store(n)
	return ingestErr
}

// countingReader counts consumed bytes.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown gracefully drains the server: it stops accepting, lets
// queued and active streams finish (force-closing their connections if
// ctx expires first), and returns the final fleet report. It is the
// SIGTERM path — after it returns, every accepted stream is accounted
// for in the returned report. Shutdown is idempotent; concurrent calls
// share the drain.
func (s *Server) Shutdown(ctx context.Context) (FleetReport, error) {
	s.mu.Lock()
	s.draining = true
	listeners := append([]net.Listener(nil), s.listeners...)
	s.listeners = nil
	s.mu.Unlock()
	s.drain.Do(func() { close(s.drainCh) })
	for _, l := range listeners {
		l.Close()
	}
	s.acceptWG.Wait()
	// Safe: every accept loop has exited, so nobody can send on jobs.
	s.jobsClose.Do(func() { close(s.jobs) })

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		s.streamWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Force the stalled streams' connections closed; their ingest
		// loops fail fast and account the streams as failed.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return s.Report(), err
}
