package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Mutexhold enforces the unlock-before-send discipline the service
// layer is built on: while a sync.Mutex / sync.RWMutex is held, a
// function must not
//
//   - send on or receive from a channel outside a select with a
//     default arm (the receiver may never come; the lock is now wedged
//     and every other request piles up behind it);
//   - call par.Pool.Submit or Pool.Close, or fan out via
//     par.ForEachCtx/ForEachWorkerCtx (all of these block on worker
//     goroutines that may themselves want the lock — Pool.TrySubmit is
//     the sanctioned non-blocking seam and stays legal);
//   - wait on a sync.WaitGroup;
//   - write to an http.ResponseWriter or flush an http.Flusher
//     (including via fmt.Fprint* with the writer as destination): a
//     slow client would hold the server mutex for the duration of the
//     write.
//
// The tracking is a linear scan per function: Lock/RLock adds the
// receiver expression to the held set, Unlock/RUnlock removes it, and
// a deferred unlock keeps it held through the function body — which is
// exactly the point: with `defer mu.Unlock()` every statement below
// runs under the lock.
var Mutexhold = &Analyzer{
	Name: "mutexhold",
	Doc:  "no blocking channel, pool, waitgroup or HTTP operations while holding a mutex",
	Run:  runMutexhold,
}

func runMutexhold(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				h := &holdScan{pass: pass, held: map[string]token.Pos{}}
				h.stmts(fd.Body.List)
			}
		}
	}
	return nil
}

type holdScan struct {
	pass *Pass
	// held maps a mutex expression key ("s.mu") to the Lock position.
	held map[string]token.Pos
}

// anyHeld returns the lexically smallest held mutex key, so messages
// are deterministic even when several locks are held at once.
func (h *holdScan) anyHeld() (string, bool) {
	best := ""
	for k := range h.held {
		if best == "" || k < best {
			//nocvet:ignore min-selection commutes: the result is the same for every iteration order
			best = k
		}
	}
	return best, best != ""
}

func (h *holdScan) stmts(list []ast.Stmt) {
	for _, s := range list {
		h.stmt(s)
	}
}

func (h *holdScan) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		h.expr(st.X)
	case *ast.DeferStmt:
		// A deferred unlock means the lock is held for the rest of the
		// body — so do NOT release. Any other deferred call is opaque.
		if kind, _ := h.mutexOp(st.Call); kind == opLock {
			h.lockFrom(st.Call)
		}
	case *ast.GoStmt:
		// The spawned goroutine runs on its own stack; its sends do not
		// happen under our lock. Ignore the body.
	case *ast.SendStmt:
		if key, held := h.anyHeld(); held {
			h.pass.Reportf(st.Pos(), "channel send while holding %s; unlock first, send after (snapshot under the lock, deliver outside it)", key)
		}
		h.exprCalls(st.Value)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			h.expr(e)
		}
		for _, e := range st.Lhs {
			h.exprCalls(e)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			h.stmt(st.Init)
		}
		h.expr(st.Cond)
		h.branch(st.Body.List)
		if st.Else != nil {
			h.branch([]ast.Stmt{st.Else})
		}
	case *ast.ForStmt:
		if st.Init != nil {
			h.stmt(st.Init)
		}
		if st.Cond != nil {
			h.expr(st.Cond)
		}
		h.branch(st.Body.List)
	case *ast.RangeStmt:
		h.exprCalls(st.X)
		h.branch(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			h.stmt(st.Init)
		}
		if st.Tag != nil {
			h.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h.branch(cc.Body)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if key, held := h.anyHeld(); held && !hasDefault {
			h.pass.Reportf(st.Pos(), "blocking select while holding %s; add a default arm or unlock first", key)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				h.branch(cc.Body)
			}
		}
	case *ast.BlockStmt:
		h.stmts(st.List)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			h.expr(e)
		}
	case *ast.LabeledStmt:
		h.stmt(st.Stmt)
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.IncDecStmt:
		// no lock effects, no blocking
	}
}

// branch scans a conditional path with a copy of the held set, so an
// unlock inside one branch does not leak a release into the code after
// the conditional.
func (h *holdScan) branch(list []ast.Stmt) {
	saved := h.held
	h.held = make(map[string]token.Pos, len(saved))
	for k, v := range saved {
		h.held[k] = v
	}
	h.stmts(list)
	h.held = saved
}

type mutexOp int

const (
	opNone mutexOp = iota
	opLock
	opUnlock
)

// mutexOp classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex and returns the receiver key.
func (h *holdScan) mutexOp(call *ast.CallExpr) (mutexOp, string) {
	fn := Callee(h.pass.Info, call)
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	isLock := methodOn(fn, "sync", "Mutex", "Lock") || methodOn(fn, "sync", "RWMutex", "Lock", "RLock")
	isUnlock := methodOn(fn, "sync", "Mutex", "Unlock") || methodOn(fn, "sync", "RWMutex", "Unlock", "RUnlock")
	if !isLock && !isUnlock {
		return opNone, ""
	}
	key := exprKey(ast.Unparen(sel.X))
	if isLock {
		return opLock, key
	}
	return opUnlock, key
}

func (h *holdScan) lockFrom(call *ast.CallExpr) {
	if kind, key := h.mutexOp(call); kind == opLock && key != "" {
		h.held[key] = call.Pos()
	}
}

// expr processes an expression for lock transitions and, if a mutex is
// held, for blocking calls.
func (h *holdScan) expr(e ast.Expr) {
	if e == nil {
		return
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		switch kind, key := h.mutexOp(call); kind {
		case opLock:
			h.held[key] = call.Pos()
			return
		case opUnlock:
			delete(h.held, key)
			return
		}
	}
	h.exprCalls(e)
}

// exprCalls walks an expression reporting blocking operations reached
// while a mutex is held. Function literals are skipped: their bodies
// run later, on a stack that does not hold our lock.
func (h *holdScan) exprCalls(e ast.Expr) {
	if e == nil {
		return
	}
	key, held := h.anyHeld()
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.ARROW && held {
			h.pass.Reportf(ue.Pos(), "channel receive while holding %s; the sender may need the lock to make progress", key)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !held {
			return true
		}
		fn := Callee(h.pass.Info, call)
		switch {
		case methodOn(fn, "repro/internal/par", "Pool", "Submit", "Close"):
			h.pass.Reportf(call.Pos(), "par.Pool.%s blocks on worker goroutines while holding %s; use TrySubmit or unlock first", fn.Name(), key)
		case isPkgFunc(fn, "repro/internal/par", "ForEachCtx", "ForEachWorkerCtx"):
			h.pass.Reportf(call.Pos(), "par.%s fans out while holding %s; workers contending for the lock deadlock the fan-out", fn.Name(), key)
		case methodOn(fn, "sync", "WaitGroup", "Wait"):
			h.pass.Reportf(call.Pos(), "WaitGroup.Wait while holding %s; waiters that need the lock never finish", key)
		case methodOn(fn, "net/http", "ResponseWriter", "Write", "WriteHeader") || methodOn(fn, "net/http", "Flusher", "Flush"):
			h.pass.Reportf(call.Pos(), "HTTP response %s while holding %s; a slow client pins the lock", fn.Name(), key)
		case isPkgFunc(fn, "fmt", "Fprintf", "Fprint", "Fprintln") && len(call.Args) > 0 && isResponseWriter(h.pass.Info.TypeOf(call.Args[0])):
			h.pass.Reportf(call.Pos(), "fmt.%s to an http.ResponseWriter while holding %s; a slow client pins the lock", fn.Name(), key)
		}
		return true
	})
}

// isResponseWriter reports whether t is the net/http.ResponseWriter
// interface type.
func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

// exprKey renders a selector chain ("s.mu", "j.state.mu") for held-set
// identity and messages. Unrenderable expressions collapse to "mutex".
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.IndexExpr:
		return exprKey(x.X) + "[...]"
	}
	return "mutex"
}
