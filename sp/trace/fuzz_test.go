package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/workload"
	"repro/sp"
	"repro/sp/trace"
)

// decodeAll reads events until EOF or error, also confirming that a
// failed decode never yields a panic (the fuzzer fails on panics by
// itself) and that errors are terminal.
func decodeAll(data []byte) ([]trace.Event, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var evs []trace.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

// FuzzReaderRoundTrip feeds arbitrary bytes to the trace reader.
// Corrupted or truncated input must error, never panic; input that
// decodes cleanly must survive an encode/decode round trip unchanged
// (the writer canonicalizes, so the round trip is on events, not
// bytes).
func FuzzReaderRoundTrip(f *testing.F) {
	// A real recorded trace as the richest seed.
	sc, _ := workload.ScenarioByName("forkjoin")
	var buf bytes.Buffer
	if _, err := workload.RecordTrace(sc.Build(16, 1), &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	// A v2 trace exercising the sync-object edge records.
	var edge bytes.Buffer
	ew := trace.NewWriter(&edge)
	ew.Fork(0) // -> t1, t2
	ew.Begin(1)
	ew.WriteAt(1, 7, "a.go:1")
	ew.Put(1) // -> diamond t3,t4 + continuation t5; token t1
	ew.Begin(2)
	ew.Get(2, []sp.ThreadID{1})
	ew.ReadAt(2, 7, "b.go:2")
	ew.Join(5, 2) // -> t6
	if err := ew.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(edge.Bytes())
	f.Add([]byte{})
	f.Add([]byte("SPTR"))
	f.Add([]byte("SPTR\x01"))
	f.Add([]byte("SPTR\x03\x01\x00"))                 // future version
	f.Add([]byte("SPTR\x02\x0c\x00\xff\xff\xff\x7f")) // huge get token count
	f.Add([]byte("SPTR\x01\x0a\xff\xff\xff\xff\x0f")) // huge string length

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := decodeAll(data)
		if err != nil {
			return // rejected cleanly
		}
		var out bytes.Buffer
		w := trace.NewWriter(&out)
		for _, ev := range evs {
			if err := w.WriteEvent(ev); err != nil {
				t.Fatalf("re-encoding decoded event %v: %v", ev, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		evs2, err := decodeAll(out.Bytes())
		if err != nil {
			t.Fatalf("decoding re-encoded trace: %v (events %v)", err, evs)
		}
		if !reflect.DeepEqual(evs, evs2) {
			t.Fatalf("round trip changed events:\n in %v\nout %v", evs, evs2)
		}
		// Replay of any decodable stream must never panic either: the
		// Monitor rejects a bad event and the Applier turns that into an
		// error. These are the backends that accept live (concurrent-order)
		// traces, the ones sptraced ingests hostile input on.
		for _, backend := range []string{"sp-order", "sp-hybrid", "depa"} {
			_ = trace.Replay(bytes.NewReader(data), sp.MustMonitor(sp.WithBackend(backend)))
		}
	})
}
