package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// encodeSample writes one record of every kind and returns the bytes
// and the events a decoder should yield.
func encodeSample(t *testing.T) ([]byte, []Event) {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Fork(0)
	e.Begin(1)
	e.Access(1, 7, true, false, "")
	e.Begin(2)
	e.Access(2, 7, false, true, "leafA")
	e.Access(2, 9, true, true, "leafA") // site interned once
	e.Acquire(2, 3)
	e.Release(2, 3)
	e.Join(1, 2)
	e.Begin(3)
	e.Access(3, 1<<40, false, false, "")
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := []Event{
		{Op: OpFork, T1: 0},
		{Op: OpBegin, T1: 1},
		{Op: OpWrite, T1: 1, Addr: 7},
		{Op: OpBegin, T1: 2},
		{Op: OpRead, T1: 2, Addr: 7, Site: "leafA", HasSite: true},
		{Op: OpWrite, T1: 2, Addr: 9, Site: "leafA", HasSite: true},
		{Op: OpAcquire, T1: 2, Lock: 3},
		{Op: OpRelease, T1: 2, Lock: 3},
		{Op: OpJoin, T1: 1, T2: 2},
		{Op: OpBegin, T1: 3},
		{Op: OpRead, T1: 3, Addr: 1 << 40},
	}
	return buf.Bytes(), want
}

// decodeAll decodes every event of data, each with tokens of its own.
func decodeAll(data []byte) ([]Event, error) {
	return decodeFrom(bytes.NewReader(data))
}

func decodeFrom(r io.Reader) ([]Event, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	var evs []Event
	for {
		var ev Event
		err := d.Decode(&ev)
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		ev.Tokens = slices.Clone(ev.Tokens)
		evs = append(evs, ev)
	}
}

func TestRoundTrip(t *testing.T) {
	data, want := encodeSample(t)
	got, err := decodeAll(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded events\n got %+v\nwant %+v", got, want)
	}
	// The single shared site must have been interned exactly once.
	if n := bytes.Count(data, []byte("leafA")); n != 1 {
		t.Fatalf("site interned %d times, want 1", n)
	}
}

func TestHeaderErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"short magic", []byte("SP"), "magic"},
		{"bad magic", []byte("XXXX\x01"), "not an sp trace"},
		{"missing version", []byte("SPTR"), "version"},
		{"zero version", []byte("SPTR\x00"), "unsupported"},
		{"future version", []byte("SPTR\x63"), "unsupported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(bytes.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewDecoder(%q) err = %v, want mention of %q", tc.data, err, tc.want)
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	header := "SPTR\x01"
	cases := []struct {
		name string
		data string
	}{
		{"unknown opcode", header + "\x7f"},
		{"truncated fork", header + "\x01"},
		{"truncated join", header + "\x02\x01"},
		{"truncated access", header + "\x04\x01"},
		{"truncated lock", header + "\x08\x01"},
		{"site index out of range", header + "\x06\x01\x02\x05"},
		{"truncated string body", header + "\x0a\x09abc"},
		{"oversized string", header + "\x0a\xff\xff\xff\x7f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeAll([]byte(tc.data)); err == nil {
				t.Fatalf("decode(%q) succeeded, want error", tc.data)
			}
		})
	}
}

// TestEveryTruncationErrorsOrStopsClean cuts a valid trace at every
// byte offset: decoding a prefix must never panic, and must either
// error or yield a prefix of the full event stream.
func TestEveryTruncationErrorsOrStopsClean(t *testing.T) {
	data, want := encodeSample(t)
	for cut := 0; cut < len(data); cut++ {
		evs, err := decodeAll(data[:cut])
		if err == nil && len(evs) >= len(want) {
			t.Fatalf("cut %d: decoded %d events without error, full trace has %d", cut, len(evs), len(want))
		}
		if len(evs) > len(want) {
			t.Fatalf("cut %d: more events than the full trace", cut)
		}
		if len(evs) > 0 && !reflect.DeepEqual(evs, want[:len(evs)]) {
			t.Fatalf("cut %d: prefix events diverge", cut)
		}
	}
}

func TestEncoderStickyError(t *testing.T) {
	e := NewEncoder(failWriter{})
	e.Fork(0)
	if err := e.Flush(); err == nil {
		t.Fatal("Flush on failing writer returned nil")
	}
	if e.Err() == nil {
		t.Fatal("Err on failing writer returned nil")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

// TestAllocsSiteString pins decoding a new site at one allocation, the
// string itself: its bytes are read through the decoder's reused
// scratch buffer. Every access names a site not seen before, as the
// benchmark's traces do once per thread.
func TestAllocsSiteString(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 2000
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	for i := range n {
		e.Access(1, uint64(i), true, true, "main.go:"+strconv.Itoa(i))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	next := func() {
		if err := d.Decode(&ev); err != nil {
			t.Fatal(err)
		}
	}
	for range n / 4 {
		next()
	}
	if got := testing.AllocsPerRun(n/2, next); got > 1 {
		t.Fatalf("decoding a new site allocates %v objects, want at most 1", got)
	}
}

// TestAllocsSiteTable pins the decoder's site table at one string per
// site plus pages that never move: decoding a trace of 4,096 distinct
// sites allocates at most 2·log2(4,096) objects besides the strings,
// apart from the decoder's own, and no more than two slots of table per
// site, so the table never copies itself as it grows. A table that grows
// by append stays inside the object bound but not the byte bound.
func TestAllocsSiteTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const sites = 4096
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	for i := range sites {
		e.Access(1, uint64(i), true, true, "main.go:"+strconv.Itoa(i))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	decode := func() {
		d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var ev Event
		for n := 0; ; n++ {
			if err := d.Decode(&ev); err == io.EOF {
				if n != sites {
					t.Fatalf("decoded %d accesses, want %d", n, sites)
				}
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The decoder's own: itself, its source, its block buffer, and its
	// scratch buffer growing to the longest site.
	const own = 8
	pages := 2 * bits.Len(sites-1) // 2·log2(sites): the pages (17), and their list growing (6)
	if got := testing.AllocsPerRun(5, decode); got > sites+float64(pages+own) {
		t.Errorf("decoding %d sites allocates %v objects, want at most %d", sites, got, sites+pages+own)
	}
	// Each site string takes 16 bytes and each table slot a 16-byte
	// string header; a table that grows by copying allocates several
	// times its final size.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	limit := uint64(sites*(16+2*16) + 2*blockSize)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("decoding %d sites allocates %d bytes, want at most %d", sites, got, limit)
	}
}

// stallSource returns data, then neither bytes nor an error, forever.
type stallSource struct{ data []byte }

func (s *stallSource) Read(p []byte) (int, error) {
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// TestStalledSourceNoProgress checks that a source that returns no
// bytes and no error ends decoding with io.ErrNoProgress, as bufio
// ends it, wherever the decoder stands: in the header, between records,
// inside an operand, and inside a site string longer than the buffer.
func TestStalledSourceNoProgress(t *testing.T) {
	data, _ := encodeSample(t)
	var long bytes.Buffer
	e := NewEncoder(&long)
	e.Access(1, 7, true, true, strings.Repeat("x", 3*blockSize))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"in the magic", data[:2]},
		{"between records", data},
		{"inside an operand", data[:6]},
		{"inside a long site", long.Bytes()[:2*blockSize]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeFrom(&stallSource{data: tc.data})
			if !errors.Is(err, io.ErrNoProgress) {
				t.Fatalf("decoding a stalled source: err = %v, want io.ErrNoProgress", err)
			}
		})
	}
}

// failSource returns data, then err; with set, err comes with the last
// bytes.
type failSource struct {
	data []byte
	err  error
	with bool
}

func (s *failSource) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, s.err
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	if len(s.data) == 0 && s.with {
		return n, s.err
	}
	return n, nil
}

// TestSourceErrorMidRecord checks that a source failing inside a record
// (sptraced's read deadline is one) surfaces as its own error, not as a
// truncation, and that the records before it decode first.
func TestSourceErrorMidRecord(t *testing.T) {
	errSource := errors.New("i/o timeout")
	data, want := encodeSample(t)
	// The header, the Fork and the Begin, then an access cut after its
	// thread operand.
	cut := 5 + 2 + 2 + 2
	for _, with := range []bool{false, true} {
		evs, err := decodeFrom(&failSource{data: data[:cut], err: errSource, with: with})
		if !errors.Is(err, errSource) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("with=%v: err = %v, want the source's error", with, err)
		}
		if got := err.Error(); got != "wire: reading operand: i/o timeout" {
			t.Fatalf("with=%v: err = %q", with, got)
		}
		if !reflect.DeepEqual(evs, want[:2]) {
			t.Fatalf("with=%v: decoded %v before the error, want %v", with, evs, want[:2])
		}
	}
}

// TestOverflowText pins the decoder's varint-overflow error at the text
// encoding/binary gives it, which Replay's messages have always carried.
func TestOverflowText(t *testing.T) {
	bad := []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f")
	_, want := binary.ReadUvarint(bytes.NewReader(bad))
	for _, data := range []string{"SPTR" + string(bad), "SPTR\x02\x01" + string(bad)} {
		_, err := decodeAll([]byte(data))
		if err == nil || !strings.HasSuffix(err.Error(), ": "+want.Error()) {
			t.Fatalf("decode(%q) err = %v, want it to end in %q", data, err, want)
		}
	}
}

// TestAllocsGetTokens pins decoding a Get into a reused record at no
// allocation: its tokens land in the decoder's own buffer.
func TestAllocsGetTokens(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 2000
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	toks := []int64{1, 2, 300, 4000, 50000, 6, 7, 1 << 40}
	for range n {
		e.Get(9, toks)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	next := func() {
		if err := d.Decode(&ev); err != nil {
			t.Fatal(err)
		}
	}
	next()
	if ev.Op != OpGet || ev.T1 != 9 || !slices.Equal(ev.Tokens, toks) {
		t.Fatalf("decoded %+v, want a Get by 9 of %v", ev, toks)
	}
	if got := testing.AllocsPerRun(n/2, next); got != 0 {
		t.Fatalf("decoding a Get of %d tokens allocates %v objects, want 0", len(toks), got)
	}
}

// TestDecodeResetsRecord checks that a record decoded into a reused
// Event carries no field of the one before: no site, no tokens, no
// second operand.
func TestDecodeResetsRecord(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Access(1, 7, true, true, "a.go:1")
	e.Get(1, []int64{4, 5})
	e.Join(2, 3)
	e.Access(1, 8, false, false, "")
	e.Acquire(1, -4)
	e.Put(1)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Op: OpWrite, T1: 1, Addr: 7, Site: "a.go:1", HasSite: true},
		{Op: OpGet, T1: 1, Tokens: []int64{4, 5}},
		{Op: OpJoin, T1: 2, T2: 3},
		{Op: OpRead, T1: 1, Addr: 8},
		{Op: OpAcquire, T1: 1, Lock: -4},
		{Op: OpPut, T1: 1},
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	for i, w := range want {
		if err := d.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ev, w) {
			t.Fatalf("record %d = %+v, want %+v", i, ev, w)
		}
	}
	if err := d.Decode(&ev); err != io.EOF {
		t.Fatalf("after the last record: err = %v, want io.EOF", err)
	}
}
