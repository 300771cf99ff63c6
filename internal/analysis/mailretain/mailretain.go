// Package mailretain defines the cliquevet analyzer enforcing the Mail
// lifetime contract (clique.Mail: "valid until the second-next Flush").
// The simulator double-buffers delivery state, so a Mail, the word
// windows Mail.From/Each hand out, and the payload slices PayloadsFrom
// returns are all recycled two flushes later. Code that stashes such a
// value anywhere that outlives the flush cycle — a struct field, a
// package variable, a goroutine, a channel — will observe it being
// overwritten by unrelated traffic, the exact aliasing bug class the
// zero-copy refactors of PRs 3–5 traded for their speedups.
//
// Tracked sources: Network.Flush/FlushAnalytic results, Mail.From /
// Mail.PayloadsFrom results, and the word-slice parameter of a Mail.Each
// callback. Taint propagates through aliasing derivations (slicing,
// indexing into reference-typed state, type assertions, locals).
// Flagged sinks, per the contract's allowance for phase-local use:
//
//   - assignment into a struct field (x.f = derived)
//   - assignment into package-level state
//   - capture by a go statement's function literal
//   - send on a channel
//
// Index-assignments into local matrices (in[dst][src] = mail.From(...))
// stay legal: that is the scratch-view idiom, whose recycling is governed
// by the pools' own putView discipline.
package mailretain

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/algebraic-clique/algclique/internal/analysis/flow"
	"github.com/algebraic-clique/algclique/internal/analysis/framework"
)

// Analyzer is the mailretain check.
var Analyzer = &framework.Analyzer{
	Name: "mailretain",
	Doc:  "flag Mail-/PayloadsFrom-derived values stored where they outlive the two-flush delivery lifetime",
	Run:  run,
}

// mailSources are the accessor methods whose results carry the two-flush
// lifetime, keyed by method name; the receiver must live in
// internal/clique.
var mailSources = map[string]bool{
	"From": true, "PayloadsFrom": true, "Flush": true, "FlushAnalytic": true,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// isCliquePath matches the simulator package (and its fixture stand-ins,
// which end in the same path element).
func isCliquePath(path string) bool {
	return path == "internal/clique" || strings.HasSuffix(path, "/internal/clique")
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	// The word-slice parameters of Mail.Each callbacks are sources too:
	// collect their objects up front so the taint predicate can see them.
	eachParams := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, pkgPath, _ := flow.CalleeOf(pass.TypesInfo, call)
		if name != "Each" || !isCliquePath(pkgPath) || len(call.Args) != 2 {
			return true
		}
		lit, ok := call.Args[1].(*ast.FuncLit)
		if !ok || lit.Type.Params == nil {
			return true
		}
		for _, field := range lit.Type.Params.List {
			for _, nameID := range field.Names {
				if obj := pass.TypesInfo.Defs[nameID]; obj != nil {
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						eachParams[obj] = true
					}
				}
			}
		}
		return true
	})

	isSource := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CallExpr:
			name, pkgPath, _ := flow.CalleeOf(pass.TypesInfo, x)
			return mailSources[name] && isCliquePath(pkgPath)
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj != nil && eachParams[obj]
		}
		return false
	}
	taint := flow.Compute(pass.TypesInfo, fd.Body, isSource)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, taint, node)
		case *ast.GoStmt:
			checkGo(pass, taint, node)
		case *ast.SendStmt:
			if taint.Tainted(node.Value) {
				pass.Reportf(node.Value.Pos(),
					"Mail-derived value sent on a channel: the delivery buffers are recycled at the second-next Flush, so the receiver may observe unrelated traffic")
			}
		}
		return true
	})
}

func checkAssign(pass *framework.Pass, taint *flow.Set, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		switch {
		case len(as.Lhs) == len(as.Rhs):
			rhs = as.Rhs[i]
		case len(as.Rhs) == 1:
			rhs = as.Rhs[0]
		}
		if rhs == nil || !taint.Tainted(rhs) {
			continue
		}
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				pass.Reportf(as.Pos(),
					"Mail-derived value stored into struct field %s: Mail and its slices are valid only until the second-next Flush; copy the words out instead", sel.Sel.Name)
				continue
			}
		}
		if obj := rootObject(pass, lhs); obj != nil && isPackageLevel(pass, obj) {
			pass.Reportf(as.Pos(),
				"Mail-derived value stored into package-level state %s: it outlives the two-flush delivery lifetime", obj.Name())
		}
	}
}

// checkGo flags tainted locals captured by a goroutine body — the
// goroutine's lifetime is not bounded by the flush cycle.
func checkGo(pass *framework.Pass, taint *flow.Set, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if taint.Tainted(id) {
			pass.Reportf(id.Pos(),
				"Mail-derived value %s captured by a goroutine: its delivery buffer is recycled at the second-next Flush regardless of the goroutine's progress", id.Name)
			return false
		}
		return true
	})
}

// rootObject unwraps selector/index/star chains to the base identifier's
// object.
func rootObject(pass *framework.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isPackageLevel(pass *framework.Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return obj.Parent() == pass.Pkg.Scope()
}
