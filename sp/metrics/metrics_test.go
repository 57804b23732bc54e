package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d", got)
	}
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered gauge: %g", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax failed to raise: %g", got)
	}
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Set = %g, want 1.5", got)
	}
}

// firstSeries returns the first series of the named family in snap.
func firstSeries(t *testing.T, snap Snapshot, name string) Series {
	t.Helper()
	for _, f := range snap.Families {
		if f.Name == name && len(f.Series) > 0 {
			return f.Series[0]
		}
	}
	t.Fatalf("snapshot has no series %q", name)
	return Series{}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "")
	for _, v := range []int64{0, 1, 2, 3, 4, 100, -7} {
		h.Observe(v)
	}
	ser := firstSeries(t, reg.Snapshot(), "h")
	if got := ser.Count; got != 7 {
		t.Fatalf("count = %d", got)
	}
	if got := ser.Sum; got != 110 { // -7 clamps to 0
		t.Fatalf("sum = %g", got)
	}
	// 0 and -7 → bucket 0 (le 0); 1 → bucket 1 (le 1); 2,3 → bucket 2
	// (le 3); 4 → bucket 3 (le 7); 100 → bucket 7 (le 127).
	wantBuckets := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 7: 1}
	for k, want := range wantBuckets {
		if got := h.buckets[k].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", k, got, want)
		}
	}
	if got, want := ser.Sum/float64(ser.Count), 110.0/7; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
}

func TestRateWindow(t *testing.T) {
	var r Rate
	base := time.Unix(1000, 0)
	for s := 0; s < rateSpan; s++ {
		r.AddAt(base.Add(time.Duration(s)*time.Second), 50)
	}
	got := r.ValueAt(base.Add(rateSpan * time.Second))
	if got != 50 {
		t.Fatalf("rate = %g, want 50", got)
	}
	// Far in the future every bucket is stale.
	if got := r.ValueAt(base.Add(time.Hour)); got != 0 {
		t.Fatalf("stale rate = %g, want 0", got)
	}
}

func TestNilInstrumentsSafe(t *testing.T) {
	var (
		c   *Counter
		g   *Gauge
		h   *Histogram
		r   *Rate
		reg *Registry
	)
	c.Add(1)
	g.Set(1)
	g.SetMax(1)
	h.Observe(1)
	r.Add(1)
	if c.Value() != 0 || g.Value() != 0 || r.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if reg.Counter("x", "") != nil || reg.Gauge("x", "") != nil ||
		reg.Histogram("x", "") != nil || reg.Rate("x", "") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	reg.CollectOnce("k", func() { t.Fatal("hook ran on nil registry") })
	if snap := reg.Snapshot(); len(snap.Families) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("ev_total", "events", "op", "fork")
	b := reg.Counter("ev_total", "events", "op", "fork")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := reg.Counter("ev_total", "events", "op", "join")
	if a == c {
		t.Fatal("different labels must return a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch must panic")
		}
	}()
	reg.Gauge("ev_total", "events")
}

func TestCollectOnceDedup(t *testing.T) {
	reg := NewRegistry()
	runs := 0
	reg.CollectOnce("k", func() { runs++ })
	reg.CollectOnce("k", func() { runs += 100 })
	reg.Snapshot()
	reg.Snapshot()
	if runs != 2 {
		t.Fatalf("hook ran %d times, want 2 (once per snapshot, second registration dropped)", runs)
	}
}

func TestSnapshotAccessors(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ev_total", "events", "op", "fork").Add(3)
	reg.Counter("ev_total", "events", "op", "join").Add(4)
	reg.Gauge("depth", "queue depth").Set(2.5)
	reg.Histogram("lat", "latency").Observe(5)
	snap := reg.Snapshot()
	if v, ok := snap.Value("ev_total", "op", "fork"); !ok || v != 3 {
		t.Fatalf("Value(fork) = %g, %v", v, ok)
	}
	if got := snap.Sum("ev_total"); got != 7 {
		t.Fatalf("Sum = %g", got)
	}
	if v, ok := snap.Value("depth"); !ok || v != 2.5 {
		t.Fatalf("Value(depth) = %g, %v", v, ok)
	}
	ser := firstSeries(t, snap, "lat")
	if ser.Count != 1 || ser.Sum != 5 {
		t.Fatalf("lat = %+v", ser)
	}
	if len(ser.Buckets) == 0 || !math.IsInf(ser.Buckets[len(ser.Buckets)-1].UpperBound, 1) {
		t.Fatalf("histogram buckets must end at +Inf: %+v", ser.Buckets)
	}
	if _, ok := snap.Value("missing"); ok {
		t.Fatal("missing series must report !ok")
	}
}

func TestCounterValues(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shard_total", "", "shard", "0").Add(10)
	reg.Counter("shard_total", "", "shard", "1").Add(30)
	got := reg.CounterValues("shard_total")
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("CounterValues = %v", got)
	}
	if vals := reg.CounterValues("missing"); len(vals) != 0 {
		t.Fatalf("missing family = %v", vals)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sp_events_total", "monitor events", "op", "fork").Add(2)
	reg.Gauge("sp_depth", "pending depth").Set(3)
	reg.Histogram("sp_lat", "latency").Observe(4)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sp_events_total monitor events",
		"# TYPE sp_events_total counter",
		`sp_events_total{op="fork"} 2`,
		"# TYPE sp_depth gauge",
		"sp_depth 3",
		"# TYPE sp_lat histogram",
		`sp_lat_bucket{le="3"} 0`,
		`sp_lat_bucket{le="7"} 1`,
		`sp_lat_bucket{le="+Inf"} 1`,
		"sp_lat_sum 4",
		"sp_lat_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelKeyCanonical(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "", "a", "1", "b", "2")
	b := reg.Counter("c", "", "b", "2", "a", "1")
	if a != b {
		t.Fatal("label order must not matter")
	}
}

// TestSnapshotMonotoneUnderLoad pins the core consistency contract:
// counter reads taken while writers are running never decrease across
// successive snapshots, and SetMax gauges never decrease.
func TestSnapshotMonotoneUnderLoad(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("hw", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				v++
				g.SetMax(float64(v))
			}
		}(int64(w * 1000))
	}
	var lastC, lastG float64
	for i := 0; i < 200; i++ {
		snap := reg.Snapshot()
		cv, _ := snap.Value("c_total")
		gv, _ := snap.Value("hw")
		if cv < lastC {
			t.Fatalf("counter went backwards: %g < %g", cv, lastC)
		}
		if gv < lastG {
			t.Fatalf("high-water gauge went backwards: %g < %g", gv, lastG)
		}
		lastC, lastG = cv, gv
	}
	close(stop)
	wg.Wait()
}
