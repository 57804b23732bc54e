package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/sp"
	"repro/sp/metrics"
	"repro/sp/spsync"
	"repro/sp/trace"
)

// layers runs the per-layer passes of a traced run on the workload's
// own event streams, plus the probes, which call each layer's public
// API in the shape the instrumented programs use it.
func (r *runner) layers(streams []stream) error {
	fmt.Println("per-layer passes:")
	if err := r.probeInstrument(); err != nil {
		return err
	}
	r.probeSpsync()
	r.probeMonitor()
	if err := r.streamPasses(streams); err != nil {
		return err
	}
	return r.servicePass(streams)
}

// probeInstrument times the rewrite of the committed programs.
func (r *runner) probeInstrument() error {
	src := filepath.Join(r.work, "probe-src")
	if err := r.copyPrograms(src); err != nil {
		return err
	}
	var times []float64
	var n int
	for i := 0; i < 3; i++ {
		start := time.Now()
		var err error
		if n, err = r.rewrite(src, filepath.Join(r.work, "probe-shadow")); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds()*1e3)
	}
	r.setLayer("instrument.rewrite_ms", median(times), len(times))
	r.setLayer("instrument.announces", float64(n), 1)
	return nil
}

// timed calls fn n times, timing every call, and records one call in
// sampleEvery as a span of the layer.
func (r *runner) timed(name, layer string, parent int32, n int, fn func(k int)) []float64 {
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		t0 := time.Now()
		fn(k)
		t1 := time.Now()
		out[k] = float64(t1.Sub(t0).Nanoseconds())
		if k%sampleEvery == 0 {
			r.spans.add(name, layer, parent, int32(k), t0, t1)
		}
	}
	return out
}

// probeSpsync calls the public sp/spsync API from benchmark code: the
// process-wide engine starts under the default configuration
// (sp-hybrid, lock-aware), as in an instrumented binary.
func (r *runner) probeSpsync() {
	id := r.spans.begin("spsync probe", "bench", 0, 0)
	defer r.spans.end(id)
	finish := spsync.Main()
	defer finish()
	cells := make([]int, 256)
	acc := r.timed("spsync.Read/Write", "spsync", id, 8192, func(k int) {
		if k%4 == 0 {
			spsync.Write(&cells[k%len(cells)], "probe.go:1")
		} else {
			spsync.Read(&cells[k%len(cells)], "probe.go:2")
		}
	})
	r.setLayer("spsync.access_ns.p50", percentile(acc, 50), len(acc))
	r.setLayer("spsync.access_ns.p99", percentile(acc, 99), len(acc))

	var wg spsync.WaitGroup
	gos := r.timed("spsync.Go", "spsync", id, 256, func(int) {
		wg.Add(1)
		spsync.Go(wg.Done)
	})
	wg.Wait()
	r.setLayer("spsync.go_ns.p50", percentile(gos, 50), len(gos))

	waits := make([]float64, 0, 256)
	for k := 0; k < 256; k++ {
		wg.Add(1)
		spsync.Go(wg.Done)
		t0 := time.Now()
		wg.Wait()
		waits = append(waits, float64(time.Since(t0).Nanoseconds()))
	}
	r.setLayer("spsync.wait_ns.p50", percentile(waits, 50), len(waits))

	var mu spsync.Mutex
	locks := r.timed("spsync.Mutex", "spsync", id, 4096, func(int) {
		mu.Lock()
		mu.Unlock()
	})
	r.setLayer("spsync.lock_ns.p50", percentile(locks, 50), len(locks))

	ch := spsync.NewChan[int](1)
	chans := r.timed("spsync.Chan", "spsync", id, 4096, func(k int) {
		ch.Send(k)
		ch.Recv()
	})
	r.setLayer("spsync.chan_ns.p50", percentile(chans, 50), len(chans))
}

// probeMonitor drives sp.Monitor through sp.Thread handles in the same
// configuration the spsync engine uses. Its access cost against
// spsync's is the price of goroutine identity and address interning;
// Put/Get on a thread that observed W parallel tokens prices the
// token-set maintenance of the edges.
func (r *runner) probeMonitor() {
	id := r.spans.begin("monitor probe", "bench", 0, 0)
	defer r.spans.end(id)
	m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithLockAwareness(true))
	th := m.Thread(m.Main())
	acc := r.timed("sp.Thread.ReadAt/WriteAt", "monitor", id, 8192, func(k int) {
		if k%4 == 0 {
			th.WriteAt(uint64(k%256), "probe.go:1")
		} else {
			th.ReadAt(uint64(k%256), "probe.go:2")
		}
	})
	r.setLayer("monitor.access_ns.p50", percentile(acc, 50), len(acc))
	r.setLayer("monitor.access_ns.p99", percentile(acc, 99), len(acc))

	for _, w := range []int{16, 256} {
		m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithLockAwareness(true))
		cur := m.Thread(m.Main())
		tokens := make([]sp.ThreadID, w)
		for i := range tokens {
			var worker sp.Thread
			worker, cur = cur.Fork()
			tokens[i] = worker.ID()
			worker.Put()
		}
		for _, tok := range tokens {
			cur.Get(tok)
		}
		// Observing a token again leaves the set at W, so every sample
		// prices the same set size.
		samples := max(16, 4096/w)
		gets := r.timed(fmt.Sprintf("sp.Thread.Get w%d", w), "monitor", id, samples, func(k int) {
			cur.Get(tokens[k%w])
		})
		puts := r.timed(fmt.Sprintf("sp.Thread.Put w%d", w), "monitor", id, samples, func(int) {
			cur = cur.Put()
		})
		r.setLayer(fmt.Sprintf("monitor.get_ns.w%d", w), median(gets), len(gets))
		r.setLayer(fmt.Sprintf("monitor.put_ns.w%d", w), median(puts), len(puts))
	}
}

// opClass groups trace ops for the per-opcode spans.
func opClass(op trace.Op) string {
	switch op {
	case trace.Fork:
		return "fork"
	case trace.Join:
		return "join"
	case trace.Read, trace.Write:
		return "access"
	case trace.Acquire, trace.Release:
		return "lock"
	case trace.Put, trace.Get:
		return "edge"
	}
	return "other"
}

// streamPasses measures the trace layers on the workload's streams:
// the Reader.Next loop alone, then Applier.Apply over pre-decoded
// events on each backend with race detection, without it, and (on
// sp-order) with metrics on, and the cost and retained memory of the
// final report.
func (r *runner) streamPasses(streams []stream) error {
	var total int64
	decoded := make([][]trace.Event, len(streams))
	for i, s := range streams {
		total += s.Events
		evs, err := trace.ReadAll(bytes.NewReader(s.data))
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		decoded[i] = evs
	}
	r.setLayer("stream.events", float64(total), len(streams))

	var perEvent []float64
	for rep := 0; rep < 3; rep++ {
		id := r.spans.begin("decode pass", "bench", 0, int32(rep))
		var el time.Duration
		for _, s := range streams {
			rd, err := trace.NewReader(bytes.NewReader(s.data))
			if err != nil {
				return err
			}
			start := time.Now()
			for k := 0; ; k++ {
				var err error
				if k%sampleEvery == 0 {
					t0 := time.Now()
					_, err = rd.Next()
					r.spans.add("trace.Reader.Next", "decode", id, int32(rep), t0, time.Now())
				} else {
					_, err = rd.Next()
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return fmt.Errorf("%s: %w", s.Name, err)
				}
			}
			el += time.Since(start)
		}
		r.spans.end(id)
		perEvent = append(perEvent, float64(el.Nanoseconds())/float64(total))
	}
	r.setLayer("decode.ns_per_event", median(perEvent), len(perEvent))

	for _, b := range replayBackends {
		opNs, retained, reportMS, nsPerEvent := r.applyPass(b, streams, decoded, true, nil)
		r.setLayer("apply."+b+".ns_per_event", nsPerEvent, int(total))
		r.setLayer("monitor.report_ms."+b, reportMS, len(streams))
		r.setLayer("monitor.retained_mb."+b, retained, len(streams))
		for _, class := range []string{"fork", "join", "access", "lock", "edge"} {
			name := "op." + b + "." + class + "_ns"
			if d := opNs[class]; len(d) > 0 {
				if class == "lock" || class == "edge" {
					info(name, percentile(d, 50), "ns", len(d))
				} else {
					r.setLayer(name, percentile(d, 50), len(d))
				}
			}
		}
		_, _, _, nsPerEvent = r.applyPass(b, streams, decoded, false, nil)
		r.setLayer("apply_nodetect."+b+".ns_per_event", nsPerEvent, int(total))
	}
	_, _, _, nsPerEvent := r.applyPass("sp-order", streams, decoded, true, metrics.NewRegistry())
	r.setLayer("apply_metrics.sp-order.ns_per_event", nsPerEvent, int(total))
	return nil
}

// applyPass applies every stream's pre-decoded events to a fresh
// monitor on backend b and returns the sampled per-opcode Apply times,
// the largest heap a finished monitor and its report retain (MB), the
// total Report time (ms), and the mean Apply time per event (ns).
// With detection on, every report must reproduce the stream's
// signature.
func (r *runner) applyPass(b string, streams []stream, decoded [][]trace.Event, detect bool, reg *metrics.Registry) (map[string][]float64, float64, float64, float64) {
	opts := []sp.Option{sp.WithBackend(b), sp.WithRaceDetection(detect)}
	label := "apply " + b
	switch {
	case reg != nil:
		opts = append(opts, sp.WithMetrics(reg))
		label += " +metrics"
	case !detect:
		label += " no detection"
	}
	id := r.spans.begin(label, "bench", 0, 0)
	defer r.spans.end(id)
	opNs := map[string][]float64{}
	var seen [trace.Get + 1]int // events per op, for the one-in-sampleEvery choice
	var applyTime, reportTime time.Duration
	var retained float64
	var events int64
	for i, s := range streams {
		var before runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := sp.MustMonitor(opts...)
		a := trace.NewApplier(m)
		var err error
		start := time.Now()
		for _, ev := range decoded[i] {
			sampled := seen[ev.Op]%sampleEvery == 0
			seen[ev.Op]++
			if !sampled {
				if err = a.Apply(ev); err != nil {
					break
				}
				continue
			}
			t0 := time.Now()
			err = a.Apply(ev)
			t1 := time.Now()
			class := opClass(ev.Op)
			opNs[class] = append(opNs[class], float64(t1.Sub(t0).Nanoseconds()))
			r.spans.add("Applier.Apply "+class, "apply", id, int32(i), t0, t1)
			if err != nil {
				break
			}
		}
		applyTime += time.Since(start)
		events += int64(len(decoded[i]))
		if !r.check(err == nil, "%s on %s: apply: %v", s.Name, b, err) {
			continue
		}
		rid := r.spans.begin("Monitor.Report", "report", id, int32(i))
		t0 := time.Now()
		rep := m.Report()
		reportTime += time.Since(t0)
		r.spans.end(rid)
		if detect {
			r.check(trace.Signature(rep) == s.Sig, "%s on %s: applied signature differs from the recording's", s.Name, b)
		}
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained = max(retained, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20))
		runtime.KeepAlive(m)
		runtime.KeepAlive(rep)
	}
	return opNs, retained, float64(reportTime.Nanoseconds()) / 1e6, float64(applyTime.Nanoseconds()) / float64(events)
}

// servicePass streams the workload's streams through a fresh sptraced
// from two clients and scrapes its per-event cost from /metrics.
func (r *runner) servicePass(streams []stream) error {
	bin, err := r.sptracedBin()
	if err != nil {
		return err
	}
	srv, err := r.startServer(bin, filepath.Join(r.work, "service-final.json"))
	if err != nil {
		return err
	}
	defer srv.kill()
	id := r.spans.begin("service pass", "bench", 0, 0)
	reps := max(1, (8+len(streams)-1)/len(streams))
	var mu sync.Mutex
	var sendMS, ackMS []float64
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= reps*len(streams) {
					return
				}
				s := streams[i%len(streams)]
				x := r.send(srv.ingest, s, id, int32(i))
				if r.checkAck(s, x) {
					mu.Lock()
					sendMS = append(sendMS, float64(x.eof.Sub(x.start).Nanoseconds())/1e6)
					ackMS = append(ackMS, float64(x.done.Sub(x.eof).Nanoseconds())/1e6)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	r.spans.end(id)
	scraped, err := srv.scrape()
	if err != nil {
		return err
	}
	if c := scraped["sptraced_stream_ns_per_event_count"]; c > 0 {
		r.setLayer("server.ns_per_event", scraped["sptraced_stream_ns_per_event_sum"]/c, int(c))
	}
	r.setLayer("client.send_ms.p50", percentile(sendMS, 50), len(sendMS))
	r.setLayer("client.ack_ms.p50", percentile(ackMS, 50), len(ackMS))
	return srv.stop()
}
