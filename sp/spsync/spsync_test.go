package spsync

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/sp/trace"
)

// racyFanout is the canonical instrumented shape: n spawns each bump a
// shared counter (racy) and write a private cell (safe), then the
// spawner Waits.
func racyFanout(t *testing.T, n int) {
	t.Helper()
	var counter int
	cells := make([]int, n)
	var wg WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		Go(func() {
			defer wg.Done()
			Read(&counter, "fanout.go:1")
			counter++
			Write(&counter, "fanout.go:1")
			cells[i] = i
			Write(&cells[i], "fanout.go:2")
		})
	}
	wg.Wait()
	for i := range cells {
		Read(&cells[i], "fanout.go:3")
		if cells[i] != i {
			t.Fatalf("cells[%d] = %d", i, cells[i])
		}
	}
}

func TestRacyFanoutDetected(t *testing.T) {
	for _, serialize := range []bool{false, true} {
		for _, backend := range []string{"sp-hybrid", "depa", "sp-order"} {
			e, restore, err := swapEngine(Options{Backend: backend, LockAware: true, Serialize: serialize})
			if err != nil {
				t.Fatal(err)
			}
			racyFanout(t, 8)
			rep := e.reportOf()
			restore()
			if len(rep.Races) == 0 {
				t.Fatalf("backend=%s serialize=%v: planted race not detected", backend, serialize)
			}
			if len(rep.Locations) != 1 {
				t.Fatalf("backend=%s serialize=%v: raced locations %v, want exactly the counter",
					backend, serialize, rep.Locations)
			}
			if rep.Forks != 8 || rep.Joins != 8 {
				t.Fatalf("backend=%s serialize=%v: forks=%d joins=%d, want 8/8", backend, serialize, rep.Forks, rep.Joins)
			}
			if e.orphans.Load() != 0 || e.unjoined.Load() != 0 {
				t.Fatalf("orphans=%d unjoined=%d, want 0/0", e.orphans.Load(), e.unjoined.Load())
			}
		}
	}
}

func TestMutexSuppressesRace(t *testing.T) {
	for _, serialize := range []bool{false, true} {
		e, restore, err := swapEngine(Options{Backend: "sp-hybrid", LockAware: true, Serialize: serialize})
		if err != nil {
			t.Fatal(err)
		}
		var mu Mutex
		var counter int
		var wg WaitGroup
		wg.Add(4)
		for i := 0; i < 4; i++ {
			Go(func() {
				defer wg.Done()
				mu.Lock()
				Read(&counter, "mutex.go:1")
				counter++
				Write(&counter, "mutex.go:1")
				mu.Unlock()
			})
		}
		wg.Wait()
		rep := e.reportOf()
		restore()
		if counter != 4 {
			t.Fatalf("counter = %d, want 4", counter)
		}
		if len(rep.Races) != 0 {
			t.Fatalf("serialize=%v: lock-protected counter reported racy: %v", serialize, rep.Races)
		}
	}
}

func TestRWMutexReaderWriter(t *testing.T) {
	e, restore, err := swapEngine(Options{Backend: "sp-hybrid", LockAware: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu RWMutex
	var val int
	var wg WaitGroup
	wg.Add(3)
	for i := 0; i < 2; i++ {
		Go(func() {
			defer wg.Done()
			mu.RLock()
			Read(&val, "rw.go:1")
			_ = val
			mu.RUnlock()
		})
	}
	Go(func() {
		defer wg.Done()
		mu.Lock()
		val = 1
		Write(&val, "rw.go:2")
		mu.Unlock()
	})
	wg.Wait()
	rep := e.reportOf()
	restore()
	if len(rep.Races) != 0 {
		t.Fatalf("rwmutex-protected value reported racy: %v", rep.Races)
	}
}

// TestNestedSpawnsJoinLIFO pins the well-nestedness discipline: a child
// that spawns and waits for a grandchild hands a true branch terminal
// to its parent's join.
func TestNestedSpawnsJoinLIFO(t *testing.T) {
	for _, serialize := range []bool{false, true} {
		e, restore, err := swapEngine(Options{Backend: "sp-order", LockAware: true, Serialize: serialize})
		if err != nil {
			t.Fatal(err)
		}
		var shared, result int
		var wg WaitGroup
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			var inner WaitGroup
			inner.Add(1)
			Go(func() {
				defer inner.Done()
				Read(&shared, "nested.go:1")
				shared++
				Write(&shared, "nested.go:1")
			})
			inner.Wait()
		})
		Read(&shared, "nested.go:2") // racy with the grandchild
		wg.Wait()
		result = shared
		Write(&result, "nested.go:3") // post-join: safe
		_ = result
		rep := e.reportOf()
		restore()
		if len(rep.Locations) != 1 {
			t.Fatalf("serialize=%v: raced locations %v, want exactly the shared counter", serialize, rep.Locations)
		}
		if rep.Forks != 2 || rep.Joins != 2 {
			t.Fatalf("serialize=%v: forks=%d joins=%d, want 2/2", serialize, rep.Forks, rep.Joins)
		}
	}
}

// TestSerializedTraceDeterministic records the same workload twice in
// serialize mode and requires byte-identical traces (dense address
// interning makes run-to-run heap layout irrelevant), then replays the
// trace differentially across every registered backend.
func TestSerializedTraceDeterministic(t *testing.T) {
	record := func(path string) {
		e, restore, err := swapEngine(Options{
			Backend: "sp-order", LockAware: false, Serialize: true, TracePath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		racyFanout(t, 6)
		e.finish()
		restore()
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.sptr"), filepath.Join(dir, "b.sptr")
	record(a)
	record(b)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatalf("serialized recordings differ: %d vs %d bytes", len(da), len(db))
	}
	if len(da) == 0 {
		t.Fatal("empty trace")
	}
	if _, err := trace.Differential(da, nil); err != nil {
		t.Fatalf("differential replay of serialized recording: %v", err)
	}
}

// TestUnknownGoroutineDropsEvents pins the orphan path: events from a
// goroutine the instrumentation did not spawn are dropped and counted,
// never panicking the monitor.
func TestUnknownGoroutineDropsEvents(t *testing.T) {
	e, restore, err := swapEngine(Options{Backend: "sp-hybrid", LockAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	var x int
	done := make(chan struct{})
	go func() { // plain go: invisible to the instrumentation
		defer close(done)
		Read(&x, "orphan.go:1")
		Write(&x, "orphan.go:1")
		var wg WaitGroup
		wg.Wait()
	}()
	<-done
	if got := e.orphans.Load(); got != 3 {
		t.Fatalf("orphans = %d, want 3", got)
	}
	if rep := e.reportOf(); rep.Accesses != 0 {
		t.Fatalf("orphan events reached the monitor: %d accesses", rep.Accesses)
	}
}

// TestJoinGraceLeavesDaemonParallel: a spawn that never terminates must
// not deadlock Wait — it stays unjoined and is counted.
func TestJoinGraceLeavesDaemonParallel(t *testing.T) {
	e, restore, err := swapEngine(Options{
		Backend: "sp-hybrid", LockAware: true, JoinGrace: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	block := make(chan struct{})
	defer close(block)
	Go(func() { <-block }) // daemon: never part of any WaitGroup
	var wg WaitGroup
	wg.Add(1)
	Go(func() { defer wg.Done() })
	wg.Wait()
	if got := e.unjoined.Load(); got == 0 {
		t.Fatal("daemon child was not counted as unjoined")
	}
}

// TestChildLeavingGrandchildUnjoined: a spawn that returns while its own
// child still runs ends on the continuation of its open fork, not on its
// branch, so joining it would be ill nested. Wait and shutdown must leave
// it parallel and count it instead of panicking, on every backend that
// accepts live goroutines.
func TestChildLeavingGrandchildUnjoined(t *testing.T) {
	for _, backend := range []string{"sp-hybrid", "sp-order", "depa"} {
		t.Run(backend, func(t *testing.T) {
			report := filepath.Join(t.TempDir(), "report.json")
			e, restore, err := swapEngine(Options{
				Backend: backend, LockAware: true, JoinGrace: 20 * time.Millisecond,
				ReportPath: report,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			block := make(chan struct{})
			defer close(block)
			var wg WaitGroup
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				Go(func() { <-block }) // grandchild outlives its parent
			})
			<-e.cur().children[0].done // the child has published its final thread
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("join of a child with an unjoined grandchild panicked: %v", r)
				}
			}()
			wg.Wait()
			e.finish()
			if got := e.unjoined.Load(); got == 0 {
				t.Fatal("child with an unjoined grandchild was not counted as unjoined")
			}
			if _, err := os.Stat(report); err != nil {
				t.Fatalf("shutdown wrote no report: %v", err)
			}
		})
	}
}

func TestReportJSONShape(t *testing.T) {
	e, restore, err := swapEngine(Options{Backend: "depa", LockAware: true})
	if err != nil {
		t.Fatal(err)
	}
	racyFanout(t, 4)
	rep := e.buildReport(e.reportOf(), nil)
	restore()
	if !rep.Racy || rep.Backend != "depa" || !rep.LockAware {
		t.Fatalf("report header wrong: %+v", rep)
	}
	for _, r := range rep.Races {
		if r.FirstSite == "" || r.SecondSite == "" {
			t.Fatalf("race missing sites: %+v", r)
		}
	}
}

// TestDenseAddressInterning pins that distinct objects get distinct
// dense ids and the same object always the same id.
func TestDenseAddressInterning(t *testing.T) {
	var e engine
	var x, y int
	px, _ := pointerOf(&x)
	py, _ := pointerOf(&y)
	a, b, c := e.addrs.intern(px), e.addrs.intern(py), e.addrs.intern(px)
	if a == b {
		t.Fatal("distinct objects shared a dense id")
	}
	if a != c {
		t.Fatal("same object got two dense ids")
	}
	if _, ok := pointerOf(42); ok {
		t.Fatal("non-pointer accepted")
	}
	if _, ok := pointerOf((*int)(nil)); ok {
		t.Fatal("nil pointer accepted")
	}
}
