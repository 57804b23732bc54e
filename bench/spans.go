package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// sampleEvery is the span sampling rate of per-event calls: one call in
// this many gets a span, so tracing stays cheap on the hot loops.
const sampleEvery = 64

// span is one call into a layer, recorded by the benchmark's own code
// around the layer's public function.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"` // unix nanoseconds
	End    int64  `json:"end"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: none
	Req    int32  `json:"req"`    // request id: the pass, program or stream
}

// spanLog is a preallocated in-memory span buffer, safe for concurrent
// recording; spans beyond its capacity are counted, not kept. A
// switched-off log records nothing.
type spanLog struct {
	on      atomic.Bool
	buf     []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

// begin opens a span and returns its id, 0 when nothing is recorded.
func (l *spanLog) begin(name, layer string, parent, req int32) int32 {
	if !l.on.Load() {
		return 0
	}
	i := l.next.Add(1) - 1
	if int(i) >= len(l.buf) {
		l.dropped.Add(1)
		return 0
	}
	l.buf[i] = span{Name: name, Layer: layer, Start: time.Now().UnixNano(), ID: i + 1, Parent: parent, Req: req}
	return i + 1
}

// end closes the span id returned by begin.
func (l *spanLog) end(id int32) {
	if id > 0 {
		l.buf[id-1].End = time.Now().UnixNano()
	}
}

// add records an already-timed span.
func (l *spanLog) add(name, layer string, parent, req int32, start, end time.Time) {
	if id := l.begin(name, layer, parent, req); id > 0 {
		l.buf[id-1].Start, l.buf[id-1].End = start.UnixNano(), end.UnixNano()
	}
}

// merge appends spans recorded by a child process, renumbering their
// ids and hanging their roots under parent.
func (l *spanLog) merge(spans []span, parent int32) {
	if !l.on.Load() {
		return
	}
	ids := map[int32]int32{}
	for _, s := range spans {
		p := parent
		if s.Parent != 0 {
			p = ids[s.Parent]
		}
		id := l.begin(s.Name, s.Layer, p, s.Req)
		if id == 0 {
			continue
		}
		ids[s.ID] = id
		l.buf[id-1].Start, l.buf[id-1].End = s.Start, s.End
	}
}

// spans returns the recorded spans.
func (l *spanLog) spans() []span {
	n := min(int(l.next.Load()), len(l.buf))
	return l.buf[:n]
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, the
// request id as the track.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Req,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerRow is one line of the layer table.
type layerRow struct {
	layer       string
	count       int
	total, self time.Duration
	p50, p99    time.Duration
}

// layerTable aggregates spans per layer. A span's self time is its
// duration minus the part of it that its child spans cover; for
// sampled per-event spans the counts and totals cover the sample only.
func layerTable(spans []span) []layerRow {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := map[string]*layerRow{}
	durs := map[string][]float64{}
	for _, s := range spans {
		row := byLayer[s.Layer]
		if row == nil {
			row = &layerRow{layer: s.Layer}
			byLayer[s.Layer] = row
		}
		d := time.Duration(s.End - s.Start)
		row.count++
		row.total += d
		row.self += d - covered(s, children[s.ID])
		durs[s.Layer] = append(durs[s.Layer], float64(d))
	}
	rows := make([]layerRow, 0, len(byLayer))
	for name, row := range byLayer {
		row.p50 = time.Duration(percentile(durs[name], 50))
		row.p99 = time.Duration(percentile(durs[name], 99))
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// printLayerTable prints the layer table of the recorded spans.
func printLayerTable(l *spanLog) {
	rows := layerTable(l.spans())
	fmt.Printf("layer table (%d spans, %d dropped; per-event spans sampled 1 in %d):\n",
		len(l.spans()), l.dropped.Load(), sampleEvery)
	fmt.Printf("  %-18s %8s %12s %12s %12s %12s\n", "layer", "count", "total", "self", "p50", "p99")
	for _, r := range rows {
		fmt.Printf("  %-18s %8d %12v %12v %12v %12v\n", r.layer, r.count,
			r.total.Round(time.Microsecond), r.self.Round(time.Microsecond),
			r.p50.Round(10*time.Nanosecond), r.p99.Round(10*time.Nanosecond))
	}
}
