package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
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

func decodeAll(data []byte) ([]Event, error) {
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var evs []Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
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
	next := func() {
		if _, err := d.Next(); err != nil {
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
