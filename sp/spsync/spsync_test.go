package spsync

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/sp/trace"
)

// racyFanout is the canonical instrumented shape: n spawns each bump a
// shared counter (racy) and write a private cell (safe), then the
// spawner Waits. The announced Read and Write of the counter are the
// planted race sp must flag; the increment itself is atomic, so that
// the test binary passes Go's own race detector.
func racyFanout(t *testing.T, n int) {
	t.Helper()
	var counter int64
	cells := make([]int, n)
	var wg WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		Go(func() {
			defer wg.Done()
			Read(&counter, "fanout.go:1")
			atomic.AddInt64(&counter, 1)
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

// TestReportJSONShape writes the shutdown report to a file, decodes it
// back to the value buildReport produced, and checks its header and
// race sites.
func TestReportJSONShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	e, restore, err := swapEngine(Options{Backend: "depa", LockAware: true, ReportPath: path})
	if err != nil {
		t.Fatal(err)
	}
	racyFanout(t, 4)
	restore()
	raw := e.reportOf()
	e.emitReport(raw, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep ReportJSON
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if want := e.buildReport(raw, nil); !reflect.DeepEqual(rep, want) {
		t.Fatalf("report file decodes to\n%+v\nwant\n%+v", rep, want)
	}
	if !rep.Racy || rep.Backend != "depa" || !rep.LockAware || len(rep.Locations) == 0 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	var count int64
	for _, r := range rep.Races {
		if r.FirstSite == "" || r.SecondSite == "" || r.Count < 1 {
			t.Fatalf("row missing sites or count: %+v", r)
		}
		count += r.Count
	}
	if count != int64(len(raw.Races)) || !bytes.Contains(data, []byte(`"count":`)) {
		t.Fatalf("row counts sum to %d, want the %d races", count, len(raw.Races))
	}
}

// TestReportRowsPerSitePair runs eight goroutines bumping one shared
// cell at one site under the lock-aware protocol, which logs a race per
// parallel pair of conflicting accesses: the report must hold one row
// per (kind, first site, second site), whose counts add up to the
// monitor's races, and the stderr summary must count both.
func TestReportRowsPerSitePair(t *testing.T) {
	for _, backend := range []string{"sp-hybrid", "depa", "sp-order"} {
		e, restore, err := swapEngine(Options{Backend: backend, LockAware: true})
		if err != nil {
			t.Fatal(err)
		}
		racyFanout(t, 8)
		restore()
		raw := e.reportOf()
		out := e.buildReport(raw, nil)
		type key struct{ kind, first, second string }
		rows := map[key]bool{}
		var count int64
		for _, r := range out.Races {
			k := key{r.Kind, r.FirstSite, r.SecondSite}
			if rows[k] || r.Count < 1 {
				t.Fatalf("%s: row %+v repeated or empty in %+v", backend, r, out.Races)
			}
			rows[k] = true
			count += r.Count
		}
		if count != int64(len(raw.Races)) || len(out.Races) >= len(raw.Races) {
			t.Fatalf("%s: %d rows counting %d races, want fewer rows counting all %d", backend, len(out.Races), count, len(raw.Races))
		}
		if !out.Racy || !reflect.DeepEqual(out.Locations, raw.Locations) {
			t.Fatalf("%s: racy %v locations %v, want racy with the monitor's %v", backend, out.Racy, out.Locations, raw.Locations)
		}
		stderr := captureStderr(t, func() { e.emitReport(raw, nil) })
		if want := fmt.Sprintf(" races=%d rows=%d ", len(raw.Races), len(out.Races)); !strings.Contains(stderr, want) {
			t.Fatalf("%s: stderr summary %q does not contain %q", backend, stderr, want)
		}
	}
}

// captureStderr returns what f writes to os.Stderr.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	prev := os.Stderr
	os.Stderr = w
	f()
	os.Stderr = prev
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
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

	t.Run("concurrent", func(t *testing.T) {
		const k, workers = 1024, 8
		var e engine
		cells := make([]int, k)
		ids := make([][]uint64, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				ids[w] = make([]uint64, k)
				for j := 0; j < k; j++ {
					i := (j*(2*w+1) + w) % k // an odd stride: every cell, in this worker's own order
					p, _ := pointerOf(&cells[i])
					ids[w][i] = e.addrs.intern(p)
				}
			}()
		}
		wg.Wait()
		seen := make([]bool, k)
		for i := 0; i < k; i++ {
			id := ids[0][i]
			for w := 1; w < workers; w++ {
				if ids[w][i] != id {
					t.Fatalf("cell %d interned as both %d and %d", i, id, ids[w][i])
				}
			}
			if id >= k || seen[id] {
				t.Fatalf("cell %d got id %d: ids are not exactly 0..%d", i, id, k-1)
			}
			seen[id] = true
		}
	})
}

// TestGoroutineKeysDistinct: goroutines that are live at once have
// pairwise-distinct registry keys, and each key names exactly one
// runtime goroutine id.
func TestGoroutineKeysDistinct(t *testing.T) {
	e, restore, err := swapEngine(Options{Backend: "sp-hybrid", LockAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	const n = 64
	keys := make([]uintptr, n)
	ids := make([]int64, n)
	states := make([]*gstate, n)
	var arrived, hold sync.WaitGroup
	arrived.Add(n)
	hold.Add(1)
	var wg WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		Go(func() {
			defer wg.Done()
			keys[i], ids[i], states[i] = gkey(), goid(), e.cur()
			arrived.Done()
			hold.Wait() // all n stay live until every key is taken
		})
	}
	arrived.Wait()
	hold.Done()
	wg.Wait()
	byKey := map[uintptr]int64{}
	byID := map[int64]uintptr{}
	for i := 0; i < n; i++ {
		if states[i] == nil {
			t.Fatalf("goroutine %d: spawned by Go but not registered", i)
		}
		if id, dup := byKey[keys[i]]; dup {
			t.Fatalf("key %#x shared by goroutines %d and %d", keys[i], id, ids[i])
		}
		if k, dup := byID[ids[i]]; dup {
			t.Fatalf("goroutine %d has keys %#x and %#x", ids[i], k, keys[i])
		}
		byKey[keys[i]], byID[ids[i]] = ids[i], keys[i]
	}
}

// grow recurses depth frames deep, each with a kilobyte of stack.
func grow(depth int) byte {
	var pad [1024]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return grow(depth-1) + pad[depth%len(pad)]
}

// TestGoroutineKeyStableAcrossStackGrowth: a goroutine keeps its key,
// and so its state, while its stack is copied to grow.
func TestGoroutineKeyStableAcrossStackGrowth(t *testing.T) {
	e, restore, err := swapEngine(Options{Backend: "sp-hybrid", LockAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	var before, after uintptr
	var stBefore, stAfter *gstate
	var moved bool
	var wg WaitGroup
	wg.Add(1)
	Go(func() {
		defer wg.Done()
		var local int
		sp0 := uintptr(unsafe.Pointer(&local))
		before, stBefore = gkey(), e.cur()
		grow(1 << 12)
		after, stAfter = gkey(), e.cur()
		moved = uintptr(unsafe.Pointer(&local)) != sp0
	})
	wg.Wait()
	if !moved {
		t.Fatal("the recursion did not move the stack; the test proves nothing")
	}
	if before != after || stBefore != stAfter || stBefore == nil {
		t.Fatalf("key %#x → %#x, state %p → %p across stack growth", before, after, stBefore, stAfter)
	}
}

// TestExitedGoroutinesLeaveNoBinding: the runtime reuses an exited
// goroutine's g for a later one, so every instrumented goroutine must
// unbind its key on the way out, runtime.Goexit included, or a plain
// goroutine would inherit its thread.
func TestExitedGoroutinesLeaveNoBinding(t *testing.T) {
	e, restore, err := swapEngine(Options{Backend: "sp-hybrid", LockAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	// Rounds keep fewer goroutines alive at once than -race allows.
	const rounds, per, probes = 10, 1000, 1000
	const n = rounds * per
	used := make([]uintptr, n)
	for r := 0; r < rounds; r++ {
		var wg WaitGroup
		wg.Add(per)
		for i := r * per; i < (r+1)*per; i++ {
			Go(func() {
				defer wg.Done()
				used[i] = gkey()
				if i == n/2 {
					runtime.Goexit()
				}
			})
		}
		wg.Wait()
	}
	if e.unjoined.Load() != 0 {
		t.Fatalf("unjoined = %d, want 0", e.unjoined.Load())
	}
	wasUsed := make(map[uintptr]bool, n)
	for _, k := range used {
		wasUsed[k] = true
	}
	var x int
	reused := 0
	for i := 0; i < probes; i++ {
		keys := make(chan uintptr, 1)
		go func() { // plain go: invisible to the instrumentation
			Read(&x, "orphan.go:1")
			keys <- gkey()
		}()
		k := <-keys
		if got := e.orphans.Load(); got != int64(i+1) {
			t.Fatalf("probe %d: orphans = %d, want %d: the goroutine found a binding", i, got, i+1)
		}
		if wasUsed[k] {
			reused++
		}
	}
	t.Logf("%d of %d plain goroutines ran on a key an instrumented goroutine had used", reused, probes)
	if (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") && reused == 0 {
		t.Fatal("no plain goroutine reused an instrumented goroutine's g; the test proves nothing")
	}
}

// TestMainHookUnbinds: the hook Main returns undoes Main's binding, so
// a later goroutine that the runtime gives the same g finds none.
func TestMainHookUnbinds(t *testing.T) {
	e, restore, err := swapEngine(Options{
		Backend: "sp-hybrid", LockAware: true, ReportPath: filepath.Join(t.TempDir(), "report.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	bound := make(chan [2]bool)
	go func() { // plain go: Main binds it, as it binds func main's goroutine
		finish := Main()
		before := e.cur() != nil
		finish()
		bound <- [2]bool{before, e.cur() != nil}
	}()
	if got := <-bound; !got[0] || got[1] {
		t.Fatalf("bound before the hook: %v, after: %v; want true, false", got[0], got[1])
	}
}
