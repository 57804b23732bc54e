// Package wire implements the varint-encoded binary format of sp event
// traces — the on-disk representation behind sp.WithTrace and the
// public repro/sp/trace reader/writer. It lives in internal/ so that
// both package sp (which records) and package sp/trace (which reads,
// replays, and analyzes) can share one codec without an import cycle.
//
// A trace is a header followed by a flat stream of records:
//
//	trace     := "SPTR" uvarint(version) record*
//	record    := event | defstring
//	defstring := 0x0A uvarint(len) len bytes   (appends one site string)
//
// Event records carry the INPUTS of the corresponding Monitor calls;
// the outputs (the thread IDs a Fork or Join creates) are implicit,
// because a fresh Monitor allocates ThreadIDs densely in event order
// (a fork creates next and next+1, a join creates next). Thread IDs,
// addresses, and string indices are unsigned varints; mutex IDs are
// zigzag varints (they are ints in the sp API). Access sites are
// interned: the first access at a site emits one defstring record and
// later accesses reference its index.
//
// Version 2 adds the sync-object edge records OpPut and OpGet (futures
// / channel send-recv edges layered over the SP relation). A Put
// retires the acting thread exactly like an empty fork-join diamond —
// the Monitor allocates three fresh IDs (a dead branch, its sibling,
// and the continuation the thread resumes as) — so thread-ID density
// is preserved and version-1 decoders never see the records they
// cannot parse (they reject the bumped header instead). Version-1
// traces still decode: the new opcodes simply never appear.
//
// Versioning policy: decoders reject traces whose version is newer
// than they understand; any change to record layout bumps Version.
// Opcodes 0x0D..0xFF are reserved for future record kinds.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/paged"
)

const (
	// Magic opens every trace stream.
	Magic = "SPTR"
	// Version is the current format version.
	Version = 2
	// MaxStringLen bounds one interned site string; longer sites are
	// truncated on encode and rejected on decode.
	MaxStringLen = 1 << 20
)

// Op is a record opcode.
type Op byte

// Record opcodes. OpString defines a string-table entry and is consumed
// internally by the Decoder; the rest surface as Events.
const (
	opInvalid   Op = iota
	OpFork         // uvarint parent
	OpJoin         // uvarint left, uvarint right
	OpBegin        // uvarint thread
	OpRead         // uvarint thread, uvarint addr
	OpWrite        // uvarint thread, uvarint addr
	OpReadSite     // uvarint thread, uvarint addr, uvarint string index
	OpWriteSite    // uvarint thread, uvarint addr, uvarint string index
	OpAcquire      // uvarint thread, zigzag lock
	OpRelease      // uvarint thread, zigzag lock
	OpString       // uvarint length, raw bytes
	OpPut          // uvarint thread (v2)
	OpGet          // uvarint thread, uvarint count, count x uvarint token (v2)
)

// Event is one decoded record. T1 is the fork parent, the join left
// operand, or the acting thread; T2 is the join right operand. Addr
// holds the address of an access, Lock the mutex of an Acquire/Release.
// Site/HasSite carry the interned site of an OpReadSite/OpWriteSite
// (whose Op decodes as OpRead/OpWrite with HasSite set). Tokens carry
// the put-tokens an OpGet joins with (the retired thread IDs of the
// matching Puts, listed explicitly: pairing by arrival order would
// mispair under concurrent recording).
type Event struct {
	Op      Op
	T1, T2  int64
	Addr    uint64
	Lock    int64
	Site    string
	HasSite bool
	Tokens  []int64
}

// Encoder streams records to an io.Writer. All methods are safe for
// concurrent use; errors are sticky and surfaced by Err and Flush.
type Encoder struct {
	mu      sync.Mutex
	w       *bufio.Writer
	err     error
	strings map[string]uint64
	buf     []byte
}

// NewEncoder wraps w and immediately writes the trace header.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: bufio.NewWriter(w), strings: map[string]uint64{}}
	e.emit(binary.AppendUvarint([]byte(Magic), Version))
	return e
}

// emit writes b unless a previous write failed. Callers hold e.mu
// (or, for NewEncoder, have exclusive access).
func (e *Encoder) emit(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// Fork records Fork(parent).
func (e *Encoder) Fork(parent int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := append(e.buf[:0], byte(OpFork))
	e.buf = binary.AppendUvarint(b, uint64(parent))
	e.emit(e.buf)
}

// Join records Join(left, right).
func (e *Encoder) Join(left, right int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := append(e.buf[:0], byte(OpJoin))
	b = binary.AppendUvarint(b, uint64(left))
	e.buf = binary.AppendUvarint(b, uint64(right))
	e.emit(e.buf)
}

// Begin records Begin(t).
func (e *Encoder) Begin(t int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := append(e.buf[:0], byte(OpBegin))
	e.buf = binary.AppendUvarint(b, uint64(t))
	e.emit(e.buf)
}

// Access records a Read/Write (write selects which) by t at addr,
// interning site when hasSite is set.
func (e *Encoder) Access(t int64, addr uint64, write, hasSite bool, site string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var idx uint64
	if hasSite {
		idx = e.internLocked(site)
	}
	op := OpRead
	switch {
	case write && hasSite:
		op = OpWriteSite
	case write:
		op = OpWrite
	case hasSite:
		op = OpReadSite
	}
	b := append(e.buf[:0], byte(op))
	b = binary.AppendUvarint(b, uint64(t))
	b = binary.AppendUvarint(b, addr)
	if hasSite {
		b = binary.AppendUvarint(b, idx)
	}
	e.buf = b
	e.emit(e.buf)
}

// internLocked returns site's string-table index, emitting its
// OpString definition record on first use (truncating over-long
// sites). The caller holds e.mu, and the definition precedes the
// record that first references it.
func (e *Encoder) internLocked(site string) uint64 {
	if len(site) > MaxStringLen {
		site = site[:MaxStringLen]
	}
	idx, known := e.strings[site]
	if known {
		return idx
	}
	idx = uint64(len(e.strings))
	e.strings[site] = idx
	b := append(e.buf[:0], byte(OpString))
	e.buf = binary.AppendUvarint(b, uint64(len(site)))
	e.emit(e.buf)
	if e.err == nil {
		_, e.err = e.w.WriteString(site)
	}
	return idx
}

// Put records Put(t): t publishes a sync-object edge and retires; the
// replaying monitor allocates the diamond's three fresh IDs itself.
func (e *Encoder) Put(t int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := append(e.buf[:0], byte(OpPut))
	e.buf = binary.AppendUvarint(b, uint64(t))
	e.emit(e.buf)
}

// Get records Get(t, tokens...): t observes the edges published by the
// listed put-tokens.
func (e *Encoder) Get(t int64, tokens []int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := append(e.buf[:0], byte(OpGet))
	b = binary.AppendUvarint(b, uint64(t))
	b = binary.AppendUvarint(b, uint64(len(tokens)))
	for _, tok := range tokens {
		b = binary.AppendUvarint(b, uint64(tok))
	}
	e.buf = b
	e.emit(e.buf)
}

// Acquire records Acquire(t, lock).
func (e *Encoder) Acquire(t, lock int64) { e.lockOp(OpAcquire, t, lock) }

// Release records Release(t, lock).
func (e *Encoder) Release(t, lock int64) { e.lockOp(OpRelease, t, lock) }

func (e *Encoder) lockOp(op Op, t, lock int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := append(e.buf[:0], byte(op))
	b = binary.AppendUvarint(b, uint64(t))
	e.buf = binary.AppendVarint(b, lock)
	e.emit(e.buf)
}

// Flush drains the buffer to the underlying writer and returns the
// sticky error, if any.
func (e *Encoder) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	e.err = e.w.Flush()
	return e.err
}

// Err returns the sticky encode error.
func (e *Encoder) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// blockSize is the size of a Decoder's buffer, the most it asks of its
// source in one Read.
const blockSize = 16 << 10

// maxEmptyReads is how many Reads in a row may return neither bytes nor
// an error before a Decoder gives up with io.ErrNoProgress, as bufio
// does.
const maxEmptyReads = 100

// errOverflow is encoding/binary's error for a varint longer than 64
// bits, which the decoder reports with the same text.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// Decoder streams records from an io.Reader. It reads the source in
// blocks into a buffer of its own and decodes each record's operands
// straight from that buffer. It is not safe for concurrent use.
type Decoder struct {
	src io.Reader
	// buf[pos:end] holds the bytes read from src and not yet decoded.
	buf      []byte
	pos, end int
	// err is the error that ended src; it surfaces once the bytes read
	// before it are decoded.
	err error
	// strings is the site table, in pages that never move: a growing
	// table copies no site it holds.
	strings paged.Pages[string]
	// scratch assembles each site string before it is copied into the
	// string, so a site costs that one allocation.
	scratch []byte
	// toks holds the tokens of the last Get decoded: every Get reuses it.
	toks    []int64
	version uint64
	maxStr  int
}

// NewDecoder wraps r and reads the trace header, rejecting bad magic
// and versions newer than this codec understands.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{src: r, buf: make([]byte, blockSize), maxStr: MaxStringLen}
	for d.end < len(Magic) {
		if err := d.more(); err != nil {
			return nil, fmt.Errorf("wire: reading magic: %w", noEOF(err))
		}
	}
	if magic := d.buf[:len(Magic)]; string(magic) != Magic {
		return nil, fmt.Errorf("wire: bad magic %q, not an sp trace", magic)
	}
	d.pos = len(Magic)
	v, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: reading version: %w", err)
	}
	if v == 0 || v > Version {
		return nil, fmt.Errorf("wire: unsupported trace version %d (this reader understands <= %d)", v, Version)
	}
	d.version = v
	return d, nil
}

// Version returns the trace's format version.
func (d *Decoder) Version() int { return int(d.version) }

// SetMaxString lowers the accepted site-string length below the
// format's MaxStringLen: servers ingesting traces from untrusted
// clients cap the per-record allocation a hostile stream can demand.
// Values outside (0, MaxStringLen] are ignored.
func (d *Decoder) SetMaxString(n int) {
	if n > 0 && n <= MaxStringLen {
		d.maxStr = n
	}
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// header or record, running out of input means truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// more reads the source once: it moves the bytes not yet decoded to the
// front of the buffer and appends at least one more, or returns the
// error that ended the source. Callers ask for more only when the
// buffer holds too few bytes for what they decode, so it is never full.
func (d *Decoder) more() error {
	if d.err != nil {
		return d.err
	}
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	for range maxEmptyReads {
		n, err := d.src.Read(d.buf[d.end:])
		if n < 0 || n > len(d.buf)-d.end {
			panic(fmt.Sprintf("wire: source returned count %d from a Read of %d bytes", n, len(d.buf)-d.end))
		}
		d.end += n
		if err != nil {
			d.err = err
		}
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	d.err = io.ErrNoProgress
	return d.err
}

// uvarint decodes one unsigned varint, reading more of the source only
// when the buffer ends inside it. Its errors are errOverflow,
// io.ErrUnexpectedEOF at the end of the source, and the source's own.
func (d *Decoder) uvarint() (uint64, error) {
	for {
		v, n := binary.Uvarint(d.buf[d.pos:d.end])
		if n > 0 {
			d.pos += n
			return v, nil
		}
		// Ten bytes without a final one overflow, as binary.ReadUvarint
		// reports them, even when the source ends right after.
		if n < 0 || d.end-d.pos >= binary.MaxVarintLen64 {
			return 0, errOverflow
		}
		if err := d.more(); err != nil {
			return 0, noEOF(err)
		}
	}
}

// operand decodes one unsigned operand.
func (d *Decoder) operand() (uint64, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("wire: reading operand: %w", err)
	}
	return v, nil
}

// tid decodes one thread-ID operand.
func (d *Decoder) tid() (int64, error) {
	v, err := d.operand()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("wire: thread id %d overflows int64", v)
	}
	return int64(v), nil
}

// site decodes a site string of n bytes, assembled in scratch.
func (d *Decoder) site(n int) (string, error) {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	b := d.scratch[:n]
	for k := 0; k < n; {
		if d.pos == d.end {
			if err := d.more(); err != nil {
				return "", err
			}
		}
		c := copy(b[k:], d.buf[d.pos:d.end])
		d.pos += c
		k += c
	}
	return string(b), nil
}

// Decode decodes the next event into *ev, setting every field, and
// returns io.EOF at a clean end of stream, or an error describing the
// corruption. String-table records are consumed internally. A Get's
// Tokens is the decoder's own buffer, valid until the next Decode. After
// an error, *ev is unspecified.
func (d *Decoder) Decode(ev *Event) error {
	for {
		if d.pos == d.end {
			if err := d.more(); err != nil {
				return err
			}
		}
		op := Op(d.buf[d.pos])
		d.pos++
		switch op {
		case OpString:
			n, err := d.operand()
			if err != nil {
				return err
			}
			if n > uint64(d.maxStr) {
				return fmt.Errorf("wire: site string length %d exceeds limit %d", n, d.maxStr)
			}
			s, err := d.site(int(n))
			if err != nil {
				return fmt.Errorf("wire: reading site string: %w", noEOF(err))
			}
			d.strings.Append(s)
		case OpFork, OpBegin, OpPut:
			t, err := d.tid()
			if err != nil {
				return err
			}
			*ev = Event{Op: op, T1: t}
			return nil
		case OpJoin:
			l, err := d.tid()
			if err != nil {
				return err
			}
			r, err := d.tid()
			if err != nil {
				return err
			}
			*ev = Event{Op: op, T1: l, T2: r}
			return nil
		case OpRead, OpWrite, OpReadSite, OpWriteSite:
			t, err := d.tid()
			if err != nil {
				return err
			}
			addr, err := d.operand()
			if err != nil {
				return err
			}
			if op == OpRead || op == OpWrite {
				*ev = Event{Op: op, T1: t, Addr: addr}
				return nil
			}
			idx, err := d.operand()
			if err != nil {
				return err
			}
			if idx >= uint64(d.strings.Len()) {
				return fmt.Errorf("wire: site index %d out of range (table has %d)", idx, d.strings.Len())
			}
			// Each sited opcode sits two above its plain one.
			*ev = Event{Op: op - OpReadSite + OpRead, T1: t, Addr: addr, Site: *d.strings.At(int(idx)), HasSite: true}
			return nil
		case OpGet:
			t, err := d.tid()
			if err != nil {
				return err
			}
			n, err := d.operand()
			if err != nil {
				return err
			}
			// A Get can name at most the threads retired so far; a
			// fixed sanity bound keeps a hostile count from growing the
			// token buffer without bound.
			const maxTokens = 1 << 20
			if n > maxTokens {
				return fmt.Errorf("wire: get token count %d exceeds limit %d", n, maxTokens)
			}
			toks := d.toks[:0]
			for range n {
				tok, err := d.tid()
				if err != nil {
					return err
				}
				toks = append(toks, tok)
			}
			d.toks = toks
			*ev = Event{Op: op, T1: t, Tokens: toks}
			return nil
		case OpAcquire, OpRelease:
			t, err := d.tid()
			if err != nil {
				return err
			}
			// The mutex is a zigzag varint, as binary.ReadVarint reads it.
			u, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("wire: reading mutex id: %w", err)
			}
			lock := int64(u >> 1)
			if u&1 != 0 {
				lock = ^lock
			}
			*ev = Event{Op: op, T1: t, Lock: lock}
			return nil
		default:
			return fmt.Errorf("wire: unknown opcode 0x%02x", byte(op))
		}
	}
}
