package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow enforces the cancellation contract:
//
//  1. Exported engine entry points — Run, Explore and CompareModels in
//     internal/search and internal/core — must have a context seam: a
//     context.Context parameter, an options-struct parameter carrying a
//     context.Context field, or a receiver struct with one (the
//     engines' Ctx-field idiom, whose nil value pins the historical
//     bit-identical path).
//  2. A function that takes a context must not perform a bare blocking
//     channel send the context cannot interrupt. Sends are fine inside
//     a select with an alternative arm or default, and on code paths
//     where the context is known nil (`if ctx == nil { ... }` — the
//     documented uncancellable legacy path).
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "engine entry points must accept context cancellation, and functions holding a context must honor it",
	Run:  runCtxflow,
}

// entryPointNames are the exported engine entry points rule 1 covers.
var entryPointNames = map[string]bool{"Run": true, "Explore": true, "CompareModels": true}

// entryPointPackages scope rule 1.
var entryPointPackages = []string{"repro/internal/search", "repro/internal/core"}

// sendCheckPackages scope rule 2 to the concurrency-bearing layers.
var sendCheckPackages = []string{
	"repro/internal/search", "repro/internal/core", "repro/internal/par",
	"repro/internal/service", "repro/internal/wormhole",
}

func pathIn(pkgPath string, set []string) bool {
	for _, p := range set {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func runCtxflow(pass *Pass) error {
	pkgPath := pass.Pkg.Path()
	checkEntry := pathIn(pkgPath, entryPointPackages)
	checkSends := pathIn(pkgPath, sendCheckPackages)

	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if checkEntry && fd.Name.IsExported() && entryPointNames[fd.Name.Name] && !hasContextSeam(pass, fd) {
				pass.Reportf(fd.Name.Pos(), "exported engine entry point %s has no context seam: accept a context.Context parameter, an options struct with a Ctx field, or add one to the receiver", fd.Name.Name)
			}
			if fd.Body == nil {
				continue
			}
			if checkSends {
				checkBlockingSends(pass, fd)
			}
		}
	}
	return nil
}

// hasContextSeam reports whether the function can reach a context: a
// context.Context parameter, a (pointer-to-)struct parameter or
// receiver with a context.Context field.
func hasContextSeam(pass *Pass, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, field := range fl.List {
			t := pass.Info.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if IsContext(t) || HasContextField(t) {
				return true
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok && HasContextField(ptr.Elem()) {
				return true
			}
		}
		return false
	}
	return check(fd.Type.Params) || check(fd.Recv)
}

// checkBlockingSends flags bare sends in functions that hold a context.
func checkBlockingSends(pass *Pass, fd *ast.FuncDecl) {
	// Find the context parameter, if any.
	var ctxObj types.Object
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil && IsContext(obj.Type()) {
					ctxObj = obj
				}
			}
		}
	}
	if ctxObj == nil {
		return
	}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		if sendIsGuarded(pass, stack, ctxObj) {
			return true
		}
		pass.Reportf(send.Pos(), "blocking send while a context.Context is in scope; select on ctx.Done() (or move the send to the documented nil-context path)")
		return true
	})
}

// sendIsGuarded reports whether the innermost enclosing constructs make
// the send cancellation-aware: a select with more than one way out, or
// an if-branch taken only when the context is nil.
func sendIsGuarded(pass *Pass, stack []ast.Node, ctxObj types.Object) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.SelectStmt:
			arms := len(x.Body.List)
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					return true // default arm: non-blocking
				}
			}
			if arms > 1 {
				return true // an alternative arm (ctx.Done/done channel) can fire
			}
		case *ast.IfStmt:
			if be, ok := ast.Unparen(x.Cond).(*ast.BinaryExpr); ok && be.Op.String() == "==" {
				if isNilCheckOf(pass, be, ctxObj) && within(stack[i+1:], x.Body) {
					return true
				}
			}
		case *ast.FuncLit:
			return true // closure: the send belongs to another goroutine's flow
		}
	}
	return false
}

// isNilCheckOf reports whether the comparison is `ctx == nil` (either
// operand order) against the given context object.
func isNilCheckOf(pass *Pass, be *ast.BinaryExpr, ctxObj types.Object) bool {
	isCtx := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.Info.Uses[id] == ctxObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isCtx(be.X) && isNil(be.Y)) || (isCtx(be.Y) && isNil(be.X))
}

// within reports whether the next node on the stack path is the given
// block (i.e. the send is inside the if's then-branch, not its else).
func within(rest []ast.Node, blk *ast.BlockStmt) bool {
	return len(rest) > 0 && rest[0] == blk
}
