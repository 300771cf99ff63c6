// Package hotalloc defines the cliquevet analyzer enforcing the scratch-
// pool allocation discipline on the simulator's hot paths.
//
// Functions whose doc comment carries the //cc:hotpath marker (see
// DESIGN.md "Enforced invariants") must be allocation-free in steady
// state: make/new, slice/map composite literals, &T{…} literals,
// fmt.Sprint*-family formatting, and implicit boxing of non-pointer values
// into interfaces are flagged. Cold sub-paths — capacity growth, panics —
// are exempt: anything inside a panic(...) argument is ignored, and a
// deliberate slow-path allocation is annotated //cc:hotalloc-ok(reason) on
// its line.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/algebraic-clique/algclique/internal/analysis/framework"
)

// Analyzer is the hotalloc check.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocations, fmt formatting, and interface boxing in //cc:hotpath functions",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if framework.HasMarker(fd.Doc, "cc:hotpath") {
				checkHotpath(pass, fd)
			}
		}
	}
	return nil
}

// checkHotpath walks a marked function's body, skipping panic arguments.
func checkHotpath(pass *framework.Pass, fd *ast.FuncDecl) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && isPanic(pass, call) {
			return false // panic construction is the cold path
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, node)
		case *ast.CompositeLit:
			switch pass.TypesInfo.Types[node].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(node.Pos(), "composite literal allocates in //cc:hotpath function %s", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if node.Op.String() == "&" {
				if _, isLit := node.X.(*ast.CompositeLit); isLit {
					pass.Reportf(node.Pos(), "&composite literal allocates in //cc:hotpath function %s", fd.Name.Name)
				}
			}
		}
		return true
	}
	for _, stmt := range fd.Body.List {
		ast.Inspect(stmt, walk)
	}
}

// checkHotCall flags make/new, fmt formatting, and boxing arguments.
func checkHotCall(pass *framework.Pass, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			if obj := pass.TypesInfo.Uses[id]; obj == nil || obj.Parent() == types.Universe {
				pass.Reportf(call.Pos(), "%s() allocates in a //cc:hotpath function: draw from the scratch pool (//cc:hotalloc-ok for deliberate slow-path growth)", id.Name)
			}
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			if strings.HasPrefix(fn.Name(), "Sprint") || fn.Name() == "Errorf" || strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print") {
				pass.Reportf(call.Pos(), "fmt.%s formats (and allocates) in a //cc:hotpath function", fn.Name())
				return
			}
		}
	}
	checkBoxing(pass, call)
}

// checkBoxing flags arguments whose concrete non-pointer value is
// implicitly converted to an interface parameter — the conversion heap-
// allocates. Pointer and interface arguments ride in the interface word
// for free and pass.
func checkBoxing(pass *framework.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // a spread arg passes the slice itself; nothing boxes
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.TypeParam:
			continue
		}
		if at.Value != nil && at.Type.Underlying() == types.Typ[types.UntypedNil] {
			continue
		}
		pass.Reportf(arg.Pos(), "boxing %s into interface argument allocates in a //cc:hotpath function",
			types.TypeString(at.Type, types.RelativeTo(pass.Pkg)))
	}
}

func isPanic(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	return obj == nil || obj.Parent() == types.Universe
}
