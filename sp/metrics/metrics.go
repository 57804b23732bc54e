// Package metrics is the repository's zero-dependency instrumentation
// core: lock-free striped counters, float gauges with set-to-max
// updates, log-scaled histograms, and windowed rate meters, collected
// in a Registry that renders both a programmatic Snapshot and the
// Prometheus text exposition format.
//
// Every instrument method is allocation-free, and every instrument (and
// the Registry itself) is nil-safe: methods on a nil receiver are
// no-ops. Counters are striped across padded cells so concurrent
// writers from many goroutines do not serialize on one cache line;
// reads sum the stripes, which keeps observed values monotone (each
// stripe is monotone, so any interleaving of stripe reads is bounded by
// values the counter actually passed through). Still, an Add draws a
// random stripe and does an atomic add, which costs more than some of
// the work a hot path would count. So a component that already counts
// its own work publishes that count instead of mirroring each event:
// sp.Monitor adds to its counters, at each Report, what its layers
// counted since the previous Report, and records as they happen only
// the counts nothing else keeps (acquire and release events,
// histograms, trace bytes).
//
// Instruments are obtained from a Registry by name plus optional
// constant label pairs, with get-or-create semantics: asking twice for
// the same (name, labels) returns the SAME instrument. That is what
// lets many short-lived components (e.g. one sp.Monitor per ingested
// sptraced stream) share one fleet-level registry — their increments
// land in common series and survive the component, with no
// per-component collection hooks keeping dead components alive.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	randv2 "math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// numStripes is the counter stripe count: enough to spread writers of
// a hot shared counter across cache lines, small enough that a registry
// full of counters stays cheap to sum.
const numStripes = 16

// stripe is one padded counter cell (64B: the value plus padding, so
// adjacent stripes never false-share).
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing striped counter. The zero
// value is ready to use; a nil Counter ignores all operations.
type Counter struct {
	stripes [numStripes]stripe
}

// Add adds n (which must be non-negative for the value to stay
// monotone) to the counter. Concurrent adders land on pseudo-random
// stripes, so a counter shared by many goroutines does not serialize
// them on one cache line.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.stripes[randv2.Uint32()&(numStripes-1)].v.Add(n)
}

// Value returns the counter's current value (the sum of its stripes).
// Concurrent with writers the result is some value the counter passed
// through; successive reads never decrease.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// Gauge is an instantaneous float64 value. The zero value reads 0; a
// nil Gauge ignores all operations. SetMax gives high-water-mark
// semantics: a gauge only ever updated through SetMax is monotone.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update. It never lowers the gauge.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histMaxBucket bounds the histogram's finite buckets: bucket k counts
// observations v with bits.Len64(v) == k, i.e. v in [2^(k-1), 2^k-1],
// so the finite upper bounds are 0, 1, 3, 7, …, 2^histMaxBucket-1.
const histMaxBucket = 40

// Histogram is a log-scaled (power-of-two bucketed) histogram of
// non-negative integer observations — latencies in nanoseconds, batch
// sizes, depths. Observe is two atomic adds; the zero value is ready
// and a nil Histogram ignores all operations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histMaxBucket + 1]atomic.Int64
}

// Observe records one observation (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	k := bits.Len64(uint64(v))
	if k > histMaxBucket {
		k = histMaxBucket
	}
	h.buckets[k].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// rateWindow is the number of one-second buckets a Rate keeps; the
// reported rate averages the rateSpan most recent complete seconds.
const (
	rateWindow = 16
	rateSpan   = 10
)

// Rate is a lock-free sliding-window events-per-second estimator:
// events land in per-second buckets of a fixed ring, and Value
// averages the buckets of the last ten complete seconds. A bucket is
// lazily reset when its ring slot is reused for a new second (CAS on
// the slot's second stamp), so the hot Add path is two atomic loads
// and an add. A nil Rate ignores all operations.
type Rate struct {
	buckets [rateWindow]struct {
		sec atomic.Int64
		n   atomic.Int64
	}
}

// Add counts n events now.
func (r *Rate) Add(n int64) {
	if r == nil {
		return
	}
	r.AddAt(time.Now(), n)
}

// AddAt counts n events at the given time (tests pin the clock).
func (r *Rate) AddAt(now time.Time, n int64) {
	if r == nil {
		return
	}
	sec := now.Unix()
	b := &r.buckets[sec%rateWindow]
	old := b.sec.Load()
	if old != sec {
		if b.sec.CompareAndSwap(old, sec) {
			b.n.Store(0)
		}
		// A lost CAS means another Add claimed the slot for this same
		// second (stamps only move forward); fall through and count.
	}
	b.n.Add(n)
}

// Value returns events per second averaged over the complete seconds
// preceding now.
func (r *Rate) Value() float64 {
	if r == nil {
		return 0
	}
	return r.ValueAt(time.Now())
}

// ValueAt is Value with a caller-supplied clock.
func (r *Rate) ValueAt(now time.Time) float64 {
	if r == nil {
		return 0
	}
	sec := now.Unix()
	var total int64
	for s := sec - rateSpan; s < sec; s++ {
		b := &r.buckets[s%rateWindow]
		if b.sec.Load() == s {
			total += b.n.Load()
		}
	}
	return float64(total) / rateSpan
}

// Metric types, as rendered in the exposition format.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// series is one labeled instrument inside a family.
type series struct {
	labels []string // flattened k, v, k, v…  (registration order)
	key    string   // canonical label rendering, the dedup key
	c      *Counter
	g      *Gauge
	h      *Histogram
	r      *Rate
}

// family is every series sharing one metric name.
type family struct {
	name, help string
	typ        string
	order      []*series
	byKey      map[string]*series
}

// Registry is a named collection of instruments. Instruments register
// with get-or-create semantics (same name and labels → same
// instrument); mixing types under one name panics, as it would produce
// an unparseable exposition. A nil Registry hands out nil instruments,
// so a component instrumented against a nil registry runs with every
// metric operation a no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order of families
	collects []func()
	collKeys map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, collKeys: map[string]bool{}}
}

// labelKey renders the flattened label pairs canonically (sorted by
// key) for dedup and exposition, e.g. {op="fork"}: each value quoted as
// strconv.Quote (fmt's %q) quotes it. One pair, the common case, is
// already sorted and costs one allocation.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("metrics: labels must be key-value pairs")
	}
	if len(labels) > 2 {
		type kv struct{ k, v string }
		pairs := make([]kv, 0, len(labels)/2)
		for i := 0; i < len(labels); i += 2 {
			pairs = append(pairs, kv{labels[i], labels[i+1]})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
		labels = make([]string, 0, len(labels))
		for _, p := range pairs {
			labels = append(labels, p.k, p.v)
		}
	}
	var buf [64]byte
	b := append(buf[:0], '{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, labels[i]...), '='), labels[i+1])
	}
	return string(append(b, '}'))
}

// getSeries returns (creating if needed) the series for (name, labels),
// panicking if the name is already registered under a different type.
func (reg *Registry) getSeries(name, help, typ string, labels []string) *series {
	key := labelKey(labels)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	f := reg.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: map[string]*series{}}
		reg.families[name] = f
		reg.names = append(reg.names, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]string(nil), labels...), key: key}
		switch typ {
		case TypeCounter:
			s.c = &Counter{}
		case TypeGauge:
			s.g = &Gauge{}
		case TypeHistogram:
			s.h = &Histogram{}
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter returns the named counter, creating it on first use. labels
// are constant key-value pairs baked into the series.
func (reg *Registry) Counter(name, help string, labels ...string) *Counter {
	if reg == nil {
		return nil
	}
	return reg.getSeries(name, help, TypeCounter, labels).c
}

// Gauge returns the named gauge, creating it on first use.
func (reg *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if reg == nil {
		return nil
	}
	return reg.getSeries(name, help, TypeGauge, labels).g
}

// Histogram returns the named histogram, creating it on first use.
func (reg *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if reg == nil {
		return nil
	}
	return reg.getSeries(name, help, TypeHistogram, labels).h
}

// Rate returns the named rate meter, creating it on first use. Rates
// render as gauges (their value is the windowed events-per-second).
func (reg *Registry) Rate(name, help string, labels ...string) *Rate {
	if reg == nil {
		return nil
	}
	s := reg.getSeries(name, help, TypeGauge, labels)
	reg.mu.Lock()
	if s.r == nil {
		s.r = &Rate{}
	}
	r := s.r
	reg.mu.Unlock()
	return r
}

// CollectOnce registers fn to run before every Snapshot or
// WritePrometheus, deduplicated by key: registering the same key again
// is a no-op. Hooks derive gauges from other instruments (e.g. shard
// imbalance from per-shard counters); they must not create new
// instruments of already-rendered families mid-snapshot — create
// instruments up front, set values in the hook.
func (reg *Registry) CollectOnce(key string, fn func()) {
	if reg == nil {
		return
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.collKeys[key] {
		return
	}
	reg.collKeys[key] = true
	reg.collects = append(reg.collects, fn)
}

// CounterValues returns the current values of every series of the
// named counter family, in registration order (empty when the family
// does not exist). Collect hooks use it to derive summary gauges.
func (reg *Registry) CounterValues(name string) []int64 {
	if reg == nil {
		return nil
	}
	reg.mu.Lock()
	f := reg.families[name]
	var ss []*series
	if f != nil {
		ss = append(ss, f.order...)
	}
	reg.mu.Unlock()
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.c.Value()
	}
	return out
}

// runCollects runs the registered hooks outside the registry lock.
func (reg *Registry) runCollects() {
	reg.mu.Lock()
	hooks := append([]func(){}, reg.collects...)
	reg.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Bucket is one cumulative histogram bucket of a Snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound (2^k - 1);
	// +Inf is represented by math.Inf(1).
	UpperBound float64
	// Count is the cumulative observation count ≤ UpperBound.
	Count int64
}

// Series is one labeled series of a Snapshot family.
type Series struct {
	// Labels holds the constant label pairs, flattened k, v, k, v….
	Labels []string
	// Value is the counter value, gauge value, or rate.
	Value float64
	// Buckets, Sum, and Count are set for histograms only.
	Buckets []Bucket
	Sum     float64
	Count   int64
}

// Family is one named metric of a Snapshot.
type Family struct {
	Name, Help, Type string
	Series           []Series
}

// Snapshot is a point-in-time copy of every instrument in a Registry —
// the programmatic face of the registry (the exposition format is the
// scrapable one). Counter reads are monotone across successive
// snapshots; gauges updated only through SetMax never decrease.
type Snapshot struct {
	Families []Family
}

// Snapshot runs the collect hooks and copies out every instrument.
func (reg *Registry) Snapshot() Snapshot {
	if reg == nil {
		return Snapshot{}
	}
	reg.runCollects()
	now := time.Now()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var snap Snapshot
	for _, name := range reg.names {
		f := reg.families[name]
		fam := Family{Name: f.name, Help: f.help, Type: f.typ}
		for _, s := range f.order {
			out := Series{Labels: append([]string(nil), s.labels...)}
			switch {
			case s.c != nil:
				out.Value = float64(s.c.Value())
			case s.h != nil:
				out.Count = s.h.count.Load()
				out.Sum = float64(s.h.sum.Load())
				var cum int64
				top := histTop(s.h)
				for k := 0; k <= top; k++ {
					cum += s.h.buckets[k].Load()
					out.Buckets = append(out.Buckets, Bucket{UpperBound: histBound(k), Count: cum})
				}
				out.Buckets = append(out.Buckets, Bucket{UpperBound: math.Inf(1), Count: out.Count})
			case s.r != nil:
				out.Value = s.r.ValueAt(now)
			case s.g != nil:
				out.Value = s.g.Value()
			}
			fam.Series = append(fam.Series, out)
		}
		snap.Families = append(snap.Families, fam)
	}
	return snap
}

// histBound is bucket k's inclusive upper bound: 2^k - 1.
func histBound(k int) float64 {
	return float64(uint64(1)<<uint(k) - 1)
}

// histTop returns the highest non-empty finite bucket index (at least
// 0), so renderings skip the long empty tail.
func histTop(h *Histogram) int {
	top := 0
	for k := histMaxBucket; k > 0; k-- {
		if h.buckets[k].Load() != 0 {
			top = k
			break
		}
	}
	return top
}

// Value returns the value of the named series (counters, gauges,
// rates) and whether it exists. labels are matched as a set.
func (s Snapshot) Value(name string, labels ...string) (float64, bool) {
	key := labelKey(labels)
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, ser := range f.Series {
			if labelKey(ser.Labels) == key {
				return ser.Value, true
			}
		}
	}
	return 0, false
}

// Sum returns the summed Value of every series of the named family —
// e.g. total events across all opcode labels.
func (s Snapshot) Sum(name string) float64 {
	var total float64
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, ser := range f.Series {
			total += ser.Value
		}
	}
	return total
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE lines per family,
// one sample line per series, histograms as cumulative _bucket series
// plus _sum and _count.
func (reg *Registry) WritePrometheus(w io.Writer) error {
	if reg == nil {
		return nil
	}
	reg.runCollects()
	now := time.Now()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var b []byte
	for _, name := range reg.names {
		f := reg.families[name]
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.order {
			switch {
			case s.c != nil:
				b = fmt.Appendf(b, "%s%s %d\n", f.name, s.key, s.c.Value())
			case s.h != nil:
				var cum int64
				top := histTop(s.h)
				for k := 0; k <= top; k++ {
					cum += s.h.buckets[k].Load()
					b = fmt.Appendf(b, "%s_bucket%s %d\n", f.name, bucketKey(s.labels, histBound(k)), cum)
				}
				b = fmt.Appendf(b, "%s_bucket%s %d\n", f.name, bucketKey(s.labels, math.Inf(1)), s.h.count.Load())
				b = fmt.Appendf(b, "%s_sum%s %d\n", f.name, s.key, s.h.sum.Load())
				b = fmt.Appendf(b, "%s_count%s %d\n", f.name, s.key, s.h.count.Load())
			case s.r != nil:
				b = fmt.Appendf(b, "%s%s %g\n", f.name, s.key, s.r.ValueAt(now))
			case s.g != nil:
				b = fmt.Appendf(b, "%s%s %g\n", f.name, s.key, s.g.Value())
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// bucketKey renders a histogram bucket's label set: the series labels
// plus le.
func bucketKey(labels []string, le float64) string {
	leStr := "+Inf"
	if !math.IsInf(le, 1) {
		leStr = fmt.Sprintf("%g", le)
	}
	return labelKey(append(append([]string(nil), labels...), "le", leStr))
}
