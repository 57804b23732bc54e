package instrument

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pureLib is a file with no shared state: locals only, no closures, no
// goroutines, no sync types. Instrumentation must be the identity.
const pureLib = `package lib

import "strings"

func Sum(xs ...int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func Join(parts []string) string {
	return strings.Join(parts, ",")
}
`

// TestIdentityOnPureFile pins the regression the shadow tree relies on:
// a file the heuristic finds nothing in is returned byte-for-byte (and
// therefore copied verbatim, never re-printed).
func TestIdentityOnPureFile(t *testing.T) {
	out, st, err := RewriteSource("lib.go", []byte(pureLib), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed {
		t.Fatalf("pure file reported changed: %+v", st)
	}
	if string(out) != pureLib {
		t.Fatalf("pure file not byte-stable:\n%s", out)
	}
}

func rewrite(t *testing.T, src string, allow ...string) (string, FileStats) {
	t.Helper()
	out, st, err := RewriteSource("prog.go", []byte(src), allow)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	// Whatever comes out must still parse.
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "prog.go", out, parser.SkipObjectResolution); err != nil {
		t.Fatalf("rewritten source does not parse: %v\n%s", err, out)
	}
	return string(out), st
}

func TestRewriteGlobalCounter(t *testing.T) {
	src := `package main

var counter int

func main() {
	counter++
}
`
	out, st := rewrite(t, src)
	for _, want := range []string{
		"defer spsync.Main()()",
		`spsync.Read(&counter, "prog.go:6")`,
		`spsync.Write(&counter, "prog.go:6")`,
		`"repro/sp/spsync"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if st.Reads != 1 || st.Writes != 1 || !st.MainHook {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRewriteGoAndSync(t *testing.T) {
	src := `package main

import "sync"

var x int

func main() {
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		mu.Lock()
		x++
		mu.Unlock()
	}()
	wg.Wait()
}
`
	out, st := rewrite(t, src)
	for _, want := range []string{
		"var wg spsync.WaitGroup",
		"var mu spsync.Mutex",
		"spsync.Go(func() {",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"sync"`) {
		t.Fatalf("unused sync import not removed:\n%s", out)
	}
	if st.GoStmts != 1 || st.SyncRewrites != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRewriteGoBindsArguments pins evaluate-then-spawn: a go statement
// with arguments binds them to temporaries before the spawn.
func TestRewriteGoBindsArguments(t *testing.T) {
	src := `package main

func work(a, b int) { _ = a + b }

func main() {
	n := 1
	go work(n, n+1)
	n = 2
}
`
	out, _ := rewrite(t, src)
	for _, want := range []string{"__sp_f0 := work", "__sp_a0_0 := n", "__sp_a0_1 := n + 1",
		"spsync.Go(func() {", "__sp_f0(__sp_a0_0, __sp_a0_1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRewriteMixedSyncUsage pins import surgery when only part of the
// sync package moves: sync.Once stays, so the import must survive.
func TestRewriteMixedSyncUsage(t *testing.T) {
	src := `package main

import "sync"

var once sync.Once
var mu sync.Mutex

func main() {
	once.Do(func() { mu.Lock(); mu.Unlock() })
}
`
	out, _ := rewrite(t, src)
	if !strings.Contains(out, `"sync"`) {
		t.Fatalf("sync import dropped while sync.Once still used:\n%s", out)
	}
	if !strings.Contains(out, "var mu spsync.Mutex") || !strings.Contains(out, "var once sync.Once") {
		t.Fatalf("selective retargeting wrong:\n%s", out)
	}
}

// TestRewriteWriteAfterJoiningCall pins the write-after rule: a store
// whose statement calls Wait must land after the join, on the
// post-join thread.
func TestRewriteWriteAfterJoiningCall(t *testing.T) {
	src := `package main

import "sync"

var x, y int

func waitAndGet(wg *sync.WaitGroup) int {
	wg.Wait()
	return y
}

func main() {
	var wg sync.WaitGroup
	x = waitAndGet(&wg)
}
`
	out, _ := rewrite(t, src)
	assign := strings.Index(out, "x = waitAndGet")
	write := strings.Index(out, `spsync.Write(&x`)
	if assign < 0 || write < 0 || write < assign {
		t.Fatalf("write not injected after the joining statement:\n%s", out)
	}
}

func TestRewriteCollisionRejected(t *testing.T) {
	src := `package main

var spsync int

func main() { spsync++ }
`
	if _, _, err := RewriteSource("prog.go", []byte(src), nil); err == nil ||
		!strings.Contains(err.Error(), "collides") {
		t.Fatalf("collision not rejected: %v", err)
	}
}

// TestRewriteAllowlist pins the -shared escape hatch: a plain local the
// heuristic would never classify becomes instrumented when named.
func TestRewriteAllowlist(t *testing.T) {
	src := `package main

func main() {
	hidden := 0
	hidden++
	_ = hidden
}
`
	out, st := rewrite(t, src, "hidden")
	if !strings.Contains(out, `spsync.Write(&hidden`) {
		t.Fatalf("allowlisted variable not instrumented:\n%s", out)
	}
	if st.Writes != 1 {
		t.Fatalf("stats: %+v", st)
	}
	outDefault, stDefault := rewrite(t, src)
	if stDefault.Reads != 0 || stDefault.Writes != 0 {
		t.Fatalf("un-allowlisted local instrumented anyway:\n%s", outDefault)
	}
}

// TestRewriteLabeledStatement pins that labels keep covering their
// statement after injection (break/continue targets stay valid).
func TestRewriteLabeledStatement(t *testing.T) {
	src := `package main

var n int

func main() {
loop:
	for i := 0; i < 3; i++ {
		for {
			n++
			continue loop
		}
	}
}
`
	out, _ := rewrite(t, src)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "prog.go", out, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ast.Inspect(f, func(m ast.Node) bool {
		if l, ok := m.(*ast.LabeledStmt); ok && l.Label.Name == "loop" {
			if _, isFor := l.Stmt.(*ast.ForStmt); isFor {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Fatalf("label detached from its loop:\n%s", out)
	}
}

// TestRewrittenOutputTypechecks closes the loop on a representative
// program: the output must type-check against the real spsync package.
func TestRewrittenOutputTypechecks(t *testing.T) {
	src := `package main

import (
	"fmt"
	"sync"
)

var counter int

func main() {
	cells := make([]int, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[i] = i
			counter++
		}()
	}
	wg.Wait()
	fmt.Println(counter, cells)
}
`
	out, _ := rewrite(t, src)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "prog.go", []byte(out), parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkPackage(fset, "main", []*ast.File{f}); err != nil {
		t.Fatalf("rewritten output does not type-check: %v\n%s", err, out)
	}
}

// TestRewriteForCondPost pins satellite coverage: a shared variable
// read by the loop condition and written by the post statement is
// announced — at the loop's own line, once per iteration.
func TestRewriteForCondPost(t *testing.T) {
	src := `package main

var n int

func main() {
	go func() { n = 1 }()
	for ; n < 3; n++ {
	}
}
`
	out, _ := rewrite(t, src)
	for _, want := range []string{
		`spsync.Read(&n, "prog.go:7")`,
		`spsync.Write(&n, "prog.go:7")`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRewritePerIterationLoopVar pins the false-positive guard: a
// := loop variable is per-iteration (Go 1.22), so its cond/post
// accesses touch a hidden variable no goroutine can see — announcing
// them in the body would invent races against captured copies.
func TestRewritePerIterationLoopVar(t *testing.T) {
	src := `package main

func main() {
	for i := 0; i < 8; i++ {
		go func() { _ = i }()
	}
}
`
	out, _ := rewrite(t, src)
	if strings.Contains(out, "spsync.Write(&i") {
		t.Fatalf("per-iteration loop variable announced as written:\n%s", out)
	}
}

// TestRewriteMapElement: map accesses announce the map value itself
// (one location per map, matching -race's granularity for map pairs).
func TestRewriteMapElement(t *testing.T) {
	src := `package main

func main() {
	m := map[string]int{}
	go func() { m["a"] = 1 }()
	m["b"] = 2
	_ = m["b"]
}
`
	out, st := rewrite(t, src)
	for _, want := range []string{
		`spsync.Write(m, "prog.go:5")`,
		`spsync.Write(m, "prog.go:6")`,
		`spsync.Read(m, "prog.go:7")`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if st.Writes < 2 || st.Reads < 1 {
		t.Fatalf("map accesses undercounted: %+v", st)
	}
}

// TestRewriteSelectorChain: compound chains rooted at a shared
// variable announce the full chain's address.
func TestRewriteSelectorChain(t *testing.T) {
	src := `package main

type inner struct{ x int }
type outer struct{ in inner }

var o outer

func main() {
	go func() { o.in.x = 1 }()
	o.in.x = 2
}
`
	out, _ := rewrite(t, src)
	if !strings.Contains(out, `spsync.Write(&o.in.x, "prog.go:10")`) {
		t.Fatalf("selector chain write not announced:\n%s", out)
	}
}

// TestRewriteCallRootedChain: f().x cannot be addressed in place (the
// call must not run twice), so the call is bound to a temporary and
// the chain announced through it.
func TestRewriteCallRootedChain(t *testing.T) {
	src := `package main

type box struct{ x int }

var g box

func get() *box { return &g }

func main() {
	go func() { g.x = 1 }()
	get().x = 2
}
`
	out, _ := rewrite(t, src)
	for _, want := range []string{
		"__sp_c0 := get()",
		`spsync.Write(&__sp_c0.x, "prog.go:11")`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// shortCircuitSort is an insertion sort whose inner loop condition
// guards its index with &&: evaluating a[j] unguarded at the end of the
// body, after j-- reached -1, would panic.
const shortCircuitSort = `package main

import "fmt"

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func main() {
	a := []int{5, 2, 4, 6, 1, 3}
	insertionSort(a)
	fmt.Println("sorted:", a)
}
`

// TestRewriteShortCircuitLoopCond pins the short-circuit rule: the right
// operand of && in a loop condition is announced only under its left
// operand, and the instrumented insertion sort builds and runs without
// an index-out-of-range panic.
func TestRewriteShortCircuitLoopCond(t *testing.T) {
	out, _ := rewrite(t, shortCircuitSort)
	if !strings.Contains(out, "if j >= 0 {\n\t\t\t\tspsync.Read(&a[j], \"prog.go:9\")") {
		t.Fatalf("right operand of && not announced under its guard:\n%s", out)
	}
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	work := t.TempDir()
	srcDir := filepath.Join(work, "src")
	if err := os.MkdirAll(srcDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcDir, "main.go"), []byte(shortCircuitSort), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcDir, "go.mod"),
		[]byte("module sortprog\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, bin, _, err := BuildInstrumented(srcDir, work, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, stdout, err := RunInstrumented(bin, work, "sp-hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "sorted: [1 2 3 4 5 6]") {
		t.Fatalf("instrumented sort printed:\n%s", stdout)
	}
	if rep.Accesses == 0 || rep.Racy {
		t.Fatalf("want a race-free run with announced accesses, got %+v", rep)
	}
}

// shortCircuitValue guards a[i] with && and || in a declared, an
// assigned and a returned value, and once behind a call on the
// assignment's left side.
const shortCircuitValue = `package main

var a = []int{3, 1, 4}

var flags = make([]bool, 3)

func at(k int) *bool { return &flags[k] }

func check(i, n int) bool {
	var ok = i < n && a[i] > 0
	*at(0) = i >= n || a[i] < 0
	flags[1] = ok || a[i] > 1
	return i < n && a[i] > 0
}

func main() {
	check(1, len(a))
}
`

// TestRewriteShortCircuitValue pins the short-circuit rule outside
// conditions: the right operand of && and || in a lone declared,
// assigned or returned value is announced under its left operand, and
// dropped when a call elsewhere in the statement could change what the
// guard reads.
func TestRewriteShortCircuitValue(t *testing.T) {
	out, _ := rewrite(t, shortCircuitValue)
	for _, want := range []string{
		"if i < n {\n\t\tspsync.Read(&a[i], \"prog.go:10\")",
		"if !(ok) {\n\t\tspsync.Read(&a[i], \"prog.go:12\")",
		"if i < n {\n\t\tspsync.Read(&a[i], \"prog.go:13\")",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing guarded announcement %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `spsync.Read(&a[i], "prog.go:11")`) {
		t.Fatalf("right operand announced past a call on the left side:\n%s", out)
	}
}
