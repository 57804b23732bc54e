package instrument

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
)

// syncRewrites maps the sync types that have spsync drop-ins. Every
// other sync name (Once, Cond, Map, Pool, sync/atomic) is left alone
// and contributes no join edges — a documented limitation.
var syncRewrites = map[string]bool{"Mutex": true, "RWMutex": true, "WaitGroup": true}

// rewriter mutates one file's tree in place. Statement injection works
// on whole blocks: for each statement, the shared reads it performs are
// announced before it and the shared writes after it (after, so a
// statement that crosses a join — a call that Waits — attributes its
// store to the post-join thread).
type rewriter struct {
	fset  *token.FileSet
	info  *types.Info
	sh    *sharing
	stats FileStats
	tmp   int // per-file temporary counter for go-statement bindings
}

func newRewriter(fset *token.FileSet, info *types.Info, sh *sharing) *rewriter {
	return &rewriter{fset: fset, info: info, sh: sh}
}

// file rewrites one file. Order matters: sync-type retargeting first,
// then statement rewriting, then the main hook and import surgery.
func (r *rewriter) file(f *ast.File) {
	r.retargetSyncTypes(f)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			r.block(fd.Body)
		}
	}
	if f.Name.Name == "main" {
		r.injectMainHook(f)
	}
	if r.stats.Changed {
		r.fixImports(f)
	}
}

// --- sync.T → spsync.T ---

// retargetSyncTypes rewrites every type use of sync.Mutex, sync.RWMutex,
// and sync.WaitGroup onto the spsync drop-ins by renaming the qualifier
// in place. Method calls need no rewriting: they go through the value,
// whose type has changed.
func (r *rewriter) retargetSyncTypes(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || !syncRewrites[sel.Sel.Name] {
			return true
		}
		pn, ok := r.info.Uses[x].(*types.PkgName)
		if !ok || pn.Imported().Path() != "sync" {
			return true
		}
		if _, isType := r.info.Uses[sel.Sel].(*types.TypeName); !isType {
			return true
		}
		x.Name = "spsync"
		r.stats.SyncRewrites++
		r.markChanged()
		return true
	})
}

// --- statement rewriting ---

// block rewrites the statements of a block in place.
func (r *rewriter) block(b *ast.BlockStmt) {
	b.List = r.stmtList(b.List)
}

func (r *rewriter) stmtList(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		out = append(out, r.stmt(s)...)
	}
	return out
}

// stmt rewrites one statement into the sequence that replaces it.
// Compound statements recurse into their blocks; their own expression
// parts (conditions, tags, range operands) get closure bodies rewritten
// but no access injection — a single injection point cannot represent a
// per-iteration evaluation (documented limitation; if/switch conditions
// without init statements ARE instrumented, they evaluate once).
func (r *rewriter) stmt(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		r.block(s)
		return []ast.Stmt{s}
	case *ast.IfStmt:
		return r.ifStmt(s)
	case *ast.ForStmt:
		return r.forStmt(s)
	case *ast.RangeStmt:
		r.funcLitsIn(s.X)
		r.block(s.Body)
		// The range operand is evaluated exactly once, before the loop:
		// its shared reads get one announcement there.
		return append(r.readCalls(r.collect(s.X, false)), s)
	case *ast.SwitchStmt:
		r.funcLitsIn(s.Init)
		r.funcLitsIn(s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					r.funcLitsIn(e)
				}
				cc.Body = r.stmtList(cc.Body)
			}
		}
		var reads []access
		if s.Init == nil { // an init statement's variables would be out of scope
			reads = r.collect(s.Tag, false)
		}
		return append(r.readCalls(reads), s)
	case *ast.TypeSwitchStmt:
		r.funcLitsIn(s.Init)
		r.funcLitsIn(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				cc.Body = r.stmtList(cc.Body)
			}
		}
		return []ast.Stmt{s}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				r.funcLitsIn(cc.Comm)
				cc.Body = r.stmtList(cc.Body)
			}
		}
		return []ast.Stmt{s}
	case *ast.LabeledStmt:
		// For a branchable statement (loop, switch) the label must stay
		// on that statement: `break L` / `continue L` require L to label
		// the loop itself, not an injected announcement. Announcements
		// hoisted above the label are then skipped by a goto — a missed
		// read, never a false race. For everything else the label is
		// re-attached to the first statement of the expansion so goto
		// targets still execute the injected announcements.
		orig := s.Stmt
		inner := r.stmt(s.Stmt)
		idx := 0
		switch orig.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for i, st := range inner {
				if st == orig {
					idx = i
					break
				}
			}
		}
		s.Stmt = inner[idx]
		inner[idx] = s
		return inner
	case *ast.GoStmt:
		return r.goStmt(s)
	case *ast.AssignStmt:
		r.funcLitsIn(s)
		return r.assign(s)
	case *ast.IncDecStmt:
		reads := r.collect(s.X, true) // feeders (index expressions)
		acc := r.classify(s.X)
		if acc != nil {
			reads = append(reads, *acc)
		}
		out := append(r.readCalls(reads), s)
		if acc != nil {
			out = append(out, r.writeCall(acc))
		}
		return out
	case *ast.ExprStmt, *ast.SendStmt, *ast.ReturnStmt, *ast.DeferStmt, *ast.DeclStmt:
		r.funcLitsIn(s)
		reads := r.collectStmt(s)
		return append(r.readCalls(reads), s)
	default:
		return []ast.Stmt{s}
	}
}

// ifStmt handles the else-if chain: an IfStmt in else position has no
// slot to inject its condition's reads into, so when injection is
// needed it is wrapped in a block first ("else { if ... }"), which is
// semantically identical.
func (r *rewriter) ifStmt(s *ast.IfStmt) []ast.Stmt {
	r.funcLitsIn(s.Init)
	r.funcLitsIn(s.Cond)
	r.block(s.Body)
	switch e := s.Else.(type) {
	case *ast.IfStmt:
		wrapped := r.ifStmt(e)
		if len(wrapped) == 1 {
			s.Else = wrapped[0] // nothing injected: keep the chain readable
		} else {
			s.Else = &ast.BlockStmt{List: wrapped}
			r.markChanged()
		}
	case *ast.BlockStmt:
		r.block(e)
	}
	var pre []ast.Stmt
	if s.Init == nil { // init-scoped variables would leak out of scope
		pre = r.condReads(s.Cond, nil)
	}
	return append(pre, s)
}

// forStmt instruments the loop clauses that used to be skipped. The
// condition is re-evaluated every iteration and the post statement runs
// every iteration, so their accesses are announced at the END of the
// body (a `continue` skips them — a missed announcement, never a false
// race; and ordering within one serial block is irrelevant to the SP
// relation, so announcing the post's accesses just before it runs is
// exact). The condition's FIRST evaluation happens before the loop; its
// reads are hoisted there, but only when there is no init statement
// whose variables would be referenced out of scope.
func (r *rewriter) forStmt(s *ast.ForStmt) []ast.Stmt {
	r.funcLitsIn(s.Init)
	r.funcLitsIn(s.Cond)
	r.funcLitsIn(s.Post)
	r.block(s.Body)
	// Variables the loop's := init declares are per-iteration (Go 1.22
	// semantics): the cond and post touch a hidden loop variable no
	// closure can observe, while the injected announcements — living in
	// the body — would address the current iteration's copy. Announcing
	// them would manufacture races against goroutines holding earlier
	// copies, so accesses rooted at loop-declared variables are dropped;
	// accesses to anything else in cond/post are real and kept.
	loopVars := map[*types.Var]bool{}
	if init, ok := s.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
		for _, l := range init.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if v, ok := r.info.Defs[id].(*types.Var); ok {
					loopVars[v] = true
				}
			}
		}
	}
	notLoopVar := func(a access) bool { return a.root == nil || !loopVars[a.root] }
	var tail []ast.Stmt
	tail = append(tail, r.postAccesses(s.Post, loopVars)...)
	tail = append(tail, r.condReads(s.Cond, notLoopVar)...)
	if len(tail) > 0 {
		s.Body.List = append(s.Body.List, tail...)
	}
	var pre []ast.Stmt
	if s.Init == nil {
		pre = r.condReads(s.Cond, nil)
	}
	return append(pre, s)
}

// condReads returns the announcements of the shared reads condition e
// performs, keeping only the accesses keep approves of (nil keeps all).
// The right operand of && and || runs only when the left one lets it —
// `j >= 0 && a[j] > v` must not evaluate &a[j] at j == -1 — so its
// announcements are guarded by re-evaluating the left operand when that
// has no side effects, and dropped otherwise: a missed race, never a
// false one.
func (r *rewriter) condReads(e ast.Expr, keep func(access) bool) []ast.Stmt {
	b, ok := unparen(e).(*ast.BinaryExpr)
	if !ok || (b.Op != token.LAND && b.Op != token.LOR) {
		accs := r.collect(e, false)
		if keep != nil {
			accs = filterAccesses(accs, keep)
		}
		return r.readCalls(accs)
	}
	out := r.condReads(b.X, keep)
	if !sideEffectFree(b.X) {
		return out
	}
	if right := r.condReads(b.Y, keep); len(right) > 0 {
		guard := b.X
		if b.Op == token.LOR {
			guard = &ast.UnaryExpr{Op: token.NOT, X: &ast.ParenExpr{X: b.X}}
		}
		out = append(out, &ast.IfStmt{Cond: guard, Body: &ast.BlockStmt{List: right}})
	}
	return out
}

// filterAccesses keeps the accesses keep() approves of.
func filterAccesses(accs []access, keep func(access) bool) []access {
	var out []access
	for _, a := range accs {
		if keep(a) {
			out = append(out, a)
		}
	}
	return out
}

// postAccesses returns the announcements for a for-loop's post
// statement: the statement itself cannot be expanded (the post slot
// holds exactly one simple statement), so its reads and writes are
// announced together at the body's end.
func (r *rewriter) postAccesses(post ast.Stmt, loopVars map[*types.Var]bool) []ast.Stmt {
	keep := func(a access) bool { return a.root == nil || !loopVars[a.root] }
	switch p := post.(type) {
	case *ast.IncDecStmt:
		reads := r.collect(p.X, true)
		acc := r.classify(p.X)
		if acc != nil && keep(*acc) {
			reads = append(reads, *acc)
		} else {
			acc = nil
		}
		out := r.readCalls(filterAccesses(reads, keep))
		if acc != nil {
			out = append(out, r.writeCall(acc))
		}
		return out
	case *ast.AssignStmt:
		var reads, writes []access
		for _, e := range p.Rhs {
			reads = append(reads, r.collect(e, false)...)
		}
		for _, l := range p.Lhs {
			reads = append(reads, r.collect(l, true)...)
			if id, ok := l.(*ast.Ident); ok && definesNew(r.info, id) {
				continue
			}
			if acc := r.classify(l); acc != nil && keep(*acc) {
				writes = append(writes, *acc)
				if p.Tok != token.ASSIGN && p.Tok != token.DEFINE {
					reads = append(reads, *acc)
				}
			}
		}
		out := r.readCalls(filterAccesses(reads, keep))
		for i := range writes {
			out = append(out, r.writeCall(&writes[i]))
		}
		return out
	}
	return nil
}

// assign injects reads of the RHS (and of LHS subexpressions) before,
// and writes to the LHS targets after. Declaring stores (x := ...) are
// not writes: nothing can race with a variable that does not exist yet.
func (r *rewriter) assign(s *ast.AssignStmt) []ast.Stmt {
	pre, post := r.extractCallChains(s)
	var reads []access
	for _, e := range s.Rhs {
		reads = append(reads, r.collect(e, false)...)
	}
	var writes []access
	for _, l := range s.Lhs {
		reads = append(reads, r.collect(l, true)...)
		if id, ok := l.(*ast.Ident); ok && definesNew(r.info, id) {
			continue
		}
		if acc := r.classify(l); acc != nil {
			writes = append(writes, *acc)
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				reads = append(reads, *acc) // compound assignment reads too
			}
		}
	}
	out := append(pre, append(r.readCalls(reads), s)...)
	for i := range writes {
		out = append(out, r.writeCall(&writes[i]))
	}
	return append(out, post...)
}

// extractCallChains handles call-rooted chains (f().x, f()[k].y) in
// simple single-pair assignments: the classifier cannot address them (a
// call must not run twice), so the call is bound to a temporary first
// and the chain — mutated in place to start at the temporary — becomes
// announceable. Memory reached through a call's pointer/slice/map
// result is conservatively treated as shared: the callee got it from
// somewhere, and announcing a private access is harmless. Extraction
// only happens when the statement's other side performs no calls, so
// the hoisted call keeps its position in evaluation order.
func (r *rewriter) extractCallChains(s *ast.AssignStmt) (pre, post []ast.Stmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil, nil
	}
	if !exprHasCall(s.Lhs[0]) {
		if binds, acc := r.extractCallRoot(s.Rhs[0]); acc != nil {
			pre = append(pre, binds...)
			pre = append(pre, r.readCall(acc))
			return pre, nil
		}
	}
	if s.Tok != token.DEFINE && !exprHasCall(s.Rhs[0]) {
		if binds, acc := r.extractCallRoot(s.Lhs[0]); acc != nil {
			pre = append(pre, binds...)
			if s.Tok != token.ASSIGN {
				pre = append(pre, r.readCall(acc)) // compound assignment reads
			}
			post = append(post, r.writeCall(acc))
		}
	}
	return pre, post
}

// extractCallRoot binds the call at the root of a chain to a __sp_c
// temporary, mutates the chain to start at the temporary, and returns
// the statements to run first (the call's own feeder reads, then the
// binding) plus the access to announce. (nil, nil) when e is not a
// call-rooted chain worth extracting.
func (r *rewriter) extractCallRoot(e ast.Expr) ([]ast.Stmt, *access) {
	call, mapLink, ok := r.callChain(e)
	if !ok {
		return nil, nil
	}
	pos := e.Pos() // before the root swap detaches the chain from source
	name := fmt.Sprintf("__sp_c%d", r.tmp)
	r.tmp++
	// The call leaves the statement, so the reads feeding its function
	// and argument expressions must be announced here.
	binds := r.readCalls(r.collect(call, false))
	binds = append(binds, &ast.AssignStmt{
		Lhs: []ast.Expr{ast.NewIdent(name)},
		Tok: token.DEFINE,
		Rhs: []ast.Expr{call},
	})
	swapChainRoot(e, call, ast.NewIdent(name))
	switch {
	case mapLink == ast.Expr(call):
		// The call result itself is the map being indexed.
		return binds, r.acc(ast.NewIdent(name), pos)
	case mapLink != nil:
		// The map operand's subtree contained the call and now holds
		// the temporary instead.
		return binds, r.acc(mapLink, pos)
	default:
		if star, isStar := e.(*ast.StarExpr); isStar {
			return binds, r.acc(star.X, pos)
		}
		return binds, r.acc(&ast.UnaryExpr{Op: token.AND, X: e}, pos)
	}
}

// callChain reports whether e is a Sel/Index/Star chain rooted at a
// call whose result is pointer-, slice-, or map-typed (value results
// are copies — nothing shared to announce). Link rules match chainRoot;
// mapLink is the operand of the outermost map index (possibly the call
// itself).
func (r *rewriter) callChain(e ast.Expr) (call *ast.CallExpr, mapLink ast.Expr, ok bool) {
	x := e
	sawLink := false
	for {
		switch cur := x.(type) {
		case *ast.ParenExpr:
			x = cur.X
		case *ast.SelectorExpr:
			sel, found := r.info.Selections[cur]
			if !found || sel.Kind() != types.FieldVal {
				return nil, nil, false
			}
			sawLink = true
			x = cur.X
		case *ast.StarExpr:
			sawLink = true
			x = cur.X
		case *ast.IndexExpr:
			if !sideEffectFree(cur.Index) {
				return nil, nil, false
			}
			switch r.underOf(cur.X).(type) {
			case *types.Slice, *types.Array, *types.Pointer:
			case *types.Map:
				if mapLink == nil {
					mapLink = cur.X
				}
			default:
				return nil, nil, false
			}
			sawLink = true
			x = cur.X
		case *ast.CallExpr:
			if !sawLink {
				return nil, nil, false // a bare call is not a chain
			}
			switch r.underOf(cur).(type) {
			case *types.Pointer, *types.Slice, *types.Map:
				return cur, mapLink, true
			}
			return nil, nil, false
		default:
			return nil, nil, false
		}
	}
}

// swapChainRoot replaces the chain link whose operand is the root call
// with sub, mutating the chain in place so the statement and the
// announcement share the temporary.
func swapChainRoot(e ast.Expr, call *ast.CallExpr, sub ast.Expr) {
	for {
		switch cur := e.(type) {
		case *ast.ParenExpr:
			if cur.X == ast.Expr(call) {
				cur.X = sub
				return
			}
			e = cur.X
		case *ast.SelectorExpr:
			if cur.X == ast.Expr(call) {
				cur.X = sub
				return
			}
			e = cur.X
		case *ast.IndexExpr:
			if cur.X == ast.Expr(call) {
				cur.X = sub
				return
			}
			e = cur.X
		case *ast.StarExpr:
			if cur.X == ast.Expr(call) {
				cur.X = sub
				return
			}
			e = cur.X
		default:
			return
		}
	}
}

// exprHasCall reports whether evaluating e performs any call — the
// guard that keeps temporary extraction from reordering calls.
func exprHasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// goStmt turns `go f(a, b)` into a block that binds the function and
// every argument to temporaries — preserving the statement's
// evaluate-then-spawn semantics — and hands the bound call to
// spsync.Go:
//
//	{ __sp_f0 := f; __sp_a0_0 := a; ...; spsync.Go(func() { __sp_f0(__sp_a0_0, ...) }) }
//
// A bare `go func() { ... }()` needs no bindings and becomes
// spsync.Go(func() { ... }) directly. Reads performed by the function
// and argument expressions are announced before the spawn.
func (r *rewriter) goStmt(s *ast.GoStmt) []ast.Stmt {
	r.funcLitsIn(s.Call)
	reads := r.collect(s.Call.Fun, false)
	for _, a := range s.Call.Args {
		reads = append(reads, r.collect(a, false)...)
	}
	r.stats.GoStmts++
	r.markChanged()
	pre := r.readCalls(reads)

	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && len(s.Call.Args) == 0 &&
		len(lit.Type.Params.List) == 0 &&
		(lit.Type.Results == nil || len(lit.Type.Results.List) == 0) {
		return append(pre, &ast.ExprStmt{X: spsyncCall("Go", lit)})
	}

	n := r.tmp
	r.tmp++
	var binds []ast.Stmt
	bind := func(name string, e ast.Expr) *ast.Ident {
		binds = append(binds, &ast.AssignStmt{
			Lhs: []ast.Expr{ast.NewIdent(name)}, Tok: token.DEFINE, Rhs: []ast.Expr{e},
		})
		return ast.NewIdent(name)
	}
	fun := s.Call.Fun
	// Builtins are not first-class values and cannot be bound; generic
	// instantiations, method values, and ordinary expressions can.
	if id, ok := unparen(fun).(*ast.Ident); !ok || !isBuiltin(r.info.Uses[id]) {
		fun = bind(fmt.Sprintf("__sp_f%d", n), fun)
	}
	args := make([]ast.Expr, len(s.Call.Args))
	for i, a := range s.Call.Args {
		args[i] = bind(fmt.Sprintf("__sp_a%d_%d", n, i), a)
	}
	call := &ast.CallExpr{Fun: fun, Args: args}
	if s.Call.Ellipsis.IsValid() {
		call.Ellipsis = 1 // any valid position marks the call variadic
	}
	binds = append(binds, &ast.ExprStmt{X: spsyncCall("Go",
		&ast.FuncLit{
			Type: &ast.FuncType{Params: &ast.FieldList{}},
			Body: &ast.BlockStmt{List: []ast.Stmt{&ast.ExprStmt{X: call}}},
		})})
	return append(pre, &ast.BlockStmt{List: binds})
}

func isBuiltin(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}

// funcLitsIn rewrites the body of every function literal reachable from
// n without entering a nested block statement: code inside a closure
// runs on whatever goroutine calls it, so its announcements belong
// inside its own body. Blocks are pruned because the statements in them
// are rewritten individually (descending here would instrument their
// closures twice).
func (r *rewriter) funcLitsIn(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			r.block(m.Body)
			return false
		case *ast.BlockStmt:
			return false
		}
		return true
	})
}

// --- access classification ---

// access is one instrumentable shared-memory access: the address
// expression to announce and the source site it happens at.
type access struct {
	addr ast.Expr   // evaluates to a pointer to the cell
	site string     // "file.go:line"
	root *types.Var // variable the chain is rooted at (nil for call temps)
}

// classify decides whether e denotes shared memory the runtime can take
// the address of, returning the pointer expression to announce:
//
//	x       (shared var)             → &x
//	s[i]    (through shared slice)   → &s[i]     (i side-effect-free)
//	*p      (through shared ptr)     → p
//	x.f     (field of shared var)    → &x.f
//	m[k]    (shared map element)     → m         (the map value: elements
//	                                              are not addressable, and
//	                                              every element access
//	                                              conflicts on the header —
//	                                              the granularity go test
//	                                              -race uses for map pairs)
//	a.b[i].c, (*p).f, m[k].y ...     → the chain's address, or the
//	                                   outermost map link's map value
//
// Chains must be rooted at an identifier and re-evaluate without side
// effects. Call-rooted chains (f().x) are handled by assign's temporary
// extraction; anything else is not classified — misses are missed
// races, never false ones.
func (r *rewriter) classify(e ast.Expr) *access {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return r.classify(e.X)
	case *ast.Ident:
		v := varOf(r.info, e)
		if v == nil || !r.sh.direct[v] {
			return nil
		}
		a := r.acc(&ast.UnaryExpr{Op: token.AND, X: ast.NewIdent(e.Name)}, e.Pos())
		a.root = v
		return a
	case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
		return r.classifyChain(e)
	}
	return nil
}

// classifyChain validates an ident-rooted chain of field selections,
// indexing, and dereferences, and builds the access to announce.
func (r *rewriter) classifyChain(e ast.Expr) *access {
	root, mapLink, ok := r.chainRoot(e)
	if !ok {
		return nil
	}
	v := varOf(r.info, root)
	if v == nil || !r.sh.reachable(v) {
		return nil
	}
	if tv, ok := r.info.Types[e]; ok && isSyncPrimitive(tv.Type) {
		return nil // never instrument a lock's own state
	}
	var a *access
	if mapLink != nil {
		a = r.acc(mapLink, e.Pos())
	} else if star, ok := e.(*ast.StarExpr); ok {
		a = r.acc(star.X, e.Pos()) // &*x is just x
	} else {
		a = r.acc(&ast.UnaryExpr{Op: token.AND, X: e}, e.Pos())
	}
	a.root = v
	return a
}

// chainRoot walks a Sel/Index/Star chain to its root identifier. Every
// link must be a plain field selection, an index with a side-effect-free
// index expression over a slice/array/pointer/map, or a dereference of a
// pointer. mapLink is the operand of the outermost map index, if any:
// the chain from there down is part of the map's value, so the map
// itself is what the access conflicts on.
func (r *rewriter) chainRoot(e ast.Expr) (root *ast.Ident, mapLink ast.Expr, ok bool) {
	x := e
	for {
		switch cur := x.(type) {
		case *ast.ParenExpr:
			x = cur.X
		case *ast.Ident:
			return cur, mapLink, true
		case *ast.SelectorExpr:
			sel, found := r.info.Selections[cur]
			if !found || sel.Kind() != types.FieldVal {
				return nil, nil, false // package name, method value
			}
			x = cur.X
		case *ast.StarExpr:
			if _, isPtr := r.underOf(cur.X).(*types.Pointer); !isPtr {
				return nil, nil, false
			}
			x = cur.X
		case *ast.IndexExpr:
			if !sideEffectFree(cur.Index) {
				return nil, nil, false
			}
			switch r.underOf(cur.X).(type) {
			case *types.Slice, *types.Array, *types.Pointer: // ptr-to-array included
			case *types.Map:
				if mapLink == nil {
					mapLink = cur.X // outermost map link wins
				}
			default:
				return nil, nil, false // strings, type params, generics
			}
			x = cur.X
		default:
			return nil, nil, false
		}
	}
}

// underOf returns the underlying type of an expression, or Invalid for
// nodes the checker never saw (injected temporaries).
func (r *rewriter) underOf(e ast.Expr) types.Type {
	if tv, ok := r.info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return types.Typ[types.Invalid]
}

func (r *rewriter) acc(addr ast.Expr, pos token.Pos) *access {
	p := r.fset.Position(pos)
	return &access{addr: addr, site: filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)}
}

// collectStmt gathers the reads a simple statement performs in its own
// expressions (not in nested blocks or function literals).
func (r *rewriter) collectStmt(s ast.Stmt) []access {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return r.collect(s.X, false)
	case *ast.SendStmt:
		return append(r.collect(s.Chan, false), r.collect(s.Value, false)...)
	case *ast.ReturnStmt:
		var out []access
		for _, e := range s.Results {
			out = append(out, r.collect(e, false)...)
		}
		return out
	case *ast.DeferStmt:
		// Function and arguments are evaluated at the defer statement.
		out := r.collect(s.Call.Fun, false)
		for _, a := range s.Call.Args {
			out = append(out, r.collect(a, false)...)
		}
		return out
	case *ast.DeclStmt:
		var out []access
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						out = append(out, r.collect(e, false)...)
					}
				}
			}
		}
		return out
	}
	return nil
}

// collect walks an expression and returns the shared reads it performs,
// short of the right operands of && and ||. Function literal bodies are
// skipped (they run elsewhere, and are instrumented in place); the
// operand of & is not itself a read (taking an address reads nothing),
// though its index subexpressions are. When lhs is set, e is an
// assignment target: the outermost access is the write (handled by the
// caller), but everything evaluated on the way to it still reads.
func (r *rewriter) collect(e ast.Expr, lhs bool) []access {
	if e == nil {
		return nil
	}
	var out []access
	var walk func(e ast.Expr, skipOuter bool)
	walk = func(e ast.Expr, skipOuter bool) {
		if e == nil {
			return
		}
		if !skipOuter {
			if acc := r.classify(e); acc != nil {
				out = append(out, *acc)
				// The classified access covers the whole expression;
				// still descend for the reads feeding it.
				switch e := e.(type) {
				case *ast.IndexExpr:
					walk(e.X, true)
					walk(e.Index, false)
				case *ast.SelectorExpr:
					walk(e.X, true)
				case *ast.StarExpr:
					walk(e.X, true)
				}
				return
			}
		}
		switch e := e.(type) {
		case *ast.Ident, *ast.BasicLit:
		case *ast.ParenExpr:
			walk(e.X, skipOuter)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				// &expr: the cell is not read; its feeders are.
				switch x := unparen(e.X).(type) {
				case *ast.IndexExpr:
					walk(x.Index, false)
				case *ast.SelectorExpr:
					walk(x.X, true)
				}
				return
			}
			walk(e.X, false)
		case *ast.BinaryExpr:
			walk(e.X, false)
			// The right operand of && and || may not run at all (and may
			// only be safe to evaluate when it does): condReads announces
			// it under a guard; everywhere else it is skipped.
			if e.Op != token.LAND && e.Op != token.LOR {
				walk(e.Y, false)
			}
		case *ast.StarExpr:
			walk(e.X, false)
		case *ast.IndexExpr:
			walk(e.X, false)
			walk(e.Index, false)
		case *ast.IndexListExpr:
			walk(e.X, false)
			for _, i := range e.Indices {
				walk(i, false)
			}
		case *ast.SliceExpr:
			walk(e.X, false)
			walk(e.Low, false)
			walk(e.High, false)
			walk(e.Max, false)
		case *ast.SelectorExpr:
			walk(e.X, false)
		case *ast.CallExpr:
			walk(e.Fun, false)
			for _, a := range e.Args {
				walk(a, false)
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				walk(el, false)
			}
		case *ast.KeyValueExpr:
			walk(e.Value, false)
		case *ast.TypeAssertExpr:
			walk(e.X, false)
		case *ast.FuncLit:
			// Runs elsewhere: its body is instrumented in place.
		}
	}
	walk(e, lhs)
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// --- injected calls ---

func spsyncCall(fn string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent("spsync"), Sel: ast.NewIdent(fn)},
		Args: args,
	}
}

func (r *rewriter) readCall(a *access) ast.Stmt {
	r.stats.Reads++
	r.markChanged()
	return &ast.ExprStmt{X: spsyncCall("Read", cloneAddr(a.addr),
		&ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(a.site)})}
}

func (r *rewriter) writeCall(a *access) ast.Stmt {
	r.stats.Writes++
	r.markChanged()
	return &ast.ExprStmt{X: spsyncCall("Write", cloneAddr(a.addr),
		&ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(a.site)})}
}

func (r *rewriter) readCalls(accs []access) []ast.Stmt {
	var out []ast.Stmt
	for i := range accs {
		out = append(out, r.readCall(&accs[i]))
	}
	return out
}

// cloneAddr shallow-copies the injected address expression so separate
// announcements of one access do not share mutable nodes.
func cloneAddr(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.Ident:
		return ast.NewIdent(e.Name)
	case *ast.UnaryExpr:
		c := *e
		return &c
	}
	return e
}

func (r *rewriter) markChanged() { r.stats.Changed = true }

// --- main hook and imports ---

// injectMainHook prepends `defer spsync.Main()()` to func main, binding
// the main goroutine to the monitor and arranging the shutdown report.
func (r *rewriter) injectMainHook(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "main" || fd.Recv != nil || fd.Body == nil {
			continue
		}
		hook := &ast.DeferStmt{Call: &ast.CallExpr{Fun: spsyncCall("Main")}}
		fd.Body.List = append([]ast.Stmt{hook}, fd.Body.List...)
		r.stats.MainHook = true
		r.markChanged()
	}
}

// fixImports adds the spsync import and drops the sync import if every
// use of it was retargeted. It runs only on changed files.
func (r *rewriter) fixImports(f *ast.File) {
	syncStillUsed := false
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != "sync" {
			return true
		}
		if pn, ok := r.info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sync" {
			syncStillUsed = true
		}
		return true
	})

	var decls []ast.Decl
	spsyncSpec := &ast.ImportSpec{Path: &ast.BasicLit{Kind: token.STRING, Value: `"repro/sp/spsync"`}}
	inserted := false
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			decls = append(decls, decl)
			continue
		}
		var specs []ast.Spec
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			if is.Path.Value == `"sync"` && is.Name == nil && !syncStillUsed {
				continue
			}
			specs = append(specs, spec)
		}
		if !inserted {
			specs = append(specs, spsyncSpec)
			inserted = true
		}
		gd.Specs = specs
		if len(gd.Specs) > 0 {
			if len(gd.Specs) > 1 && !gd.Lparen.IsValid() {
				// A single-spec import gained a second: force the
				// parenthesized form so the printed decl stays valid.
				gd.Lparen, gd.Rparen = gd.TokPos, gd.TokPos
			}
			decls = append(decls, gd)
		}
	}
	if !inserted {
		decls = append([]ast.Decl{&ast.GenDecl{
			Tok:   token.IMPORT,
			Specs: []ast.Spec{spsyncSpec},
		}}, decls...)
	}
	f.Decls = decls
	f.Imports = nil // stale cache; printing walks Decls
}
