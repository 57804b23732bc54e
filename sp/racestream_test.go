package sp_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/sp"
)

// TestRaceStreamLossless is the regression test for the Races() drop
// bug: with WithWorkers(1) the stream buffer holds 64 races, and a
// consumer that does not read until after Report used to lose every
// race past the buffer. Now the stream must deliver all of them, in
// detection order, with DroppedRaces zero, and still close.
func TestRaceStreamLossless(t *testing.T) {
	const racyLocs = 300 // well past the 64-slot buffer
	m := sp.MustMonitor(sp.WithWorkers(1))
	l, r := m.Fork(m.Main())
	for a := uint64(0); a < racyLocs; a++ {
		m.Write(l, a)
	}
	for a := uint64(0); a < racyLocs; a++ {
		m.Write(r, a) // one write-write race per location
	}
	m.Join(l, r)
	rep := m.Report()
	if len(rep.Races) != racyLocs {
		t.Fatalf("report holds %d races, want %d", len(rep.Races), racyLocs)
	}
	if rep.DroppedRaces != 0 {
		t.Fatalf("DroppedRaces = %d, want 0", rep.DroppedRaces)
	}
	// Drain after the fact: every race must arrive, in detection
	// order, and the channel must close once the backlog is dry.
	var got []sp.Race
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range m.Races() {
			got = append(got, r)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after draining")
	}
	if len(got) != racyLocs {
		t.Fatalf("stream delivered %d races, want %d", len(got), racyLocs)
	}
	for i, r := range got {
		if r.Addr != rep.Races[i].Addr || r.Kind != rep.Races[i].Kind {
			t.Fatalf("stream order diverges at %d: %v vs report %v", i, r, rep.Races[i])
		}
	}
}

// TestRaceStreamSlowConsumer runs a live concurrent producer against a
// deliberately slow consumer: the consumer's count plus nothing —
// dropped must stay zero and counts must match the report exactly.
func TestRaceStreamSlowConsumer(t *testing.T) {
	g := 2 * runtime.NumCPU()
	const per = 100
	m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithWorkers(1))
	cur := m.Thread(m.Main())
	workers := make([]sp.Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	streamed := 0
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for range m.Races() {
			streamed++
			if streamed%32 == 0 {
				time.Sleep(time.Millisecond) // fall behind on purpose
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int, th sp.Thread) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				th.Write(uint64(k % 8)) // everything races with everyone
				runtime.Gosched()       // rotate writers even on one CPU
			}
		}(i, workers[i])
	}
	wg.Wait()
	for i := g - 1; i >= 0; i-- {
		cur = workers[i].Join(cur)
	}
	rep := m.Report()
	select {
	case <-consumerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not close")
	}
	if rep.DroppedRaces != 0 {
		t.Fatalf("DroppedRaces = %d, want 0", rep.DroppedRaces)
	}
	if streamed != len(rep.Races) {
		t.Fatalf("stream delivered %d races, report holds %d", streamed, len(rep.Races))
	}
	if len(rep.Races) <= 64 {
		t.Fatalf("workload produced only %d races; the test needs to overflow the 64-slot buffer", len(rep.Races))
	}
}

// TestRaceStreamFirstListenerDuringEmits is the regression test for the
// catch-up gap: races logged on a shard before the first Races() call
// must still be streamed when a concurrent emit on that shard runs
// between Races() enabling streaming and its catch-up scan reaching the
// shard. Emitters race on many addresses (so every race-log shard holds
// a backlog) while the first listener attaches mid-run; the streamed
// count must equal the report's race count.
func TestRaceStreamFirstListenerDuringEmits(t *testing.T) {
	const (
		workers  = 4
		perG     = 5000
		attachAt = 2 * perG // writes issued before the first Races() call
	)
	for trial := 0; trial < 10; trial++ {
		m := sp.MustMonitor(sp.WithBackend("sp-hybrid"), sp.WithWorkers(workers))
		cur := m.Thread(m.Main())
		ths := make([]sp.Thread, workers)
		for i := range ths {
			ths[i], cur = cur.Fork()
		}
		var writes atomic.Int64
		var wg sync.WaitGroup
		for i := range ths {
			wg.Add(1)
			go func(th sp.Thread, off int) {
				defer wg.Done()
				for k := 0; k < perG; k++ {
					th.Write(uint64((k + off) % 256)) // racy against every sibling
					writes.Add(1)
				}
			}(ths[i], i*64)
		}
		for writes.Load() < attachAt {
			runtime.Gosched()
		}
		streamed := 0
		consumerDone := make(chan struct{})
		stream := m.Races() // first listener, with emitters still running
		go func() {
			defer close(consumerDone)
			for range stream {
				streamed++
			}
		}()
		wg.Wait()
		for i := workers - 1; i >= 0; i-- {
			cur = ths[i].Join(cur)
		}
		rep := m.Report()
		select {
		case <-consumerDone:
		case <-time.After(30 * time.Second):
			t.Fatal("stream did not close")
		}
		if streamed != len(rep.Races) {
			t.Fatalf("trial %d: stream delivered %d races, report holds %d", trial, streamed, len(rep.Races))
		}
	}
}

// TestRaceStreamNoConsumerNoLeak pins the monitor-without-listener
// case (replay harnesses, benchmarks): overflowing the stream buffer
// with Races() never called must not park a pump goroutine on the
// unread channel — the overflow stays in memory and the monitor stays
// collectable.
func TestRaceStreamNoConsumerNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		m := sp.MustMonitor(sp.WithWorkers(1))
		l, r := m.Fork(m.Main())
		for a := uint64(0); a < 200; a++ {
			m.Write(l, a)
		}
		for a := uint64(0); a < 200; a++ {
			m.Write(r, a)
		}
		m.Join(l, r)
		if rep := m.Report(); len(rep.Races) != 200 || rep.DroppedRaces != 0 {
			t.Fatalf("report races=%d dropped=%d, want 200/0", len(rep.Races), rep.DroppedRaces)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after 10 unread overflowing monitors", before, after)
	}
}
