// Package hotalloc defines the cliquevet analyzer enforcing the scratch-
// pool allocation discipline on the simulator's hot paths.
//
// Two rules:
//
//  1. Functions whose doc comment carries the //cc:hotpath marker (see
//     DESIGN.md "Enforced invariants") must be allocation-free in steady
//     state: make/new, slice/map composite literals, &T{…} literals,
//     fmt.Sprint*-family formatting, and implicit boxing of non-pointer
//     values into interfaces are flagged. Cold sub-paths — capacity
//     growth, panics — are exempt: anything inside a panic(...) argument
//     is ignored, and a deliberate slow-path allocation is annotated
//     //cc:hotalloc-ok(reason) on its line.
//
//  2. Functions threading a ccmm/routing *Scratch parameter must draw
//     message matrices from the pool rather than allocating them: a
//     make() of a three-level slice shape (the [][][]T message/view
//     matrices the pools exist for) is flagged unless the function is a
//     method of the scratch types themselves. The nil-scratch transient
//     fallbacks annotate the make with //cc:hotalloc-ok.
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
	Doc:  "flag allocations, fmt formatting, and interface boxing in //cc:hotpath functions, and pooled-shape make() in *Scratch-threading functions",
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
			if threadsScratch(pass, fd) && !isScratchMethod(pass, fd) {
				checkPooledShapes(pass, fd)
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

// threadsScratch reports whether the function takes a ccmm or routing
// Scratch pointer parameter (including generic typedScratch pointers).
func threadsScratch(pass *framework.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if isScratchType(tv.Type) {
			return true
		}
	}
	return false
}

// isScratchType matches *P where P's name contains "Scratch" (Scratch,
// typedScratch[T], routing.Scratch).
func isScratchType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	return strings.Contains(named.Obj().Name(), "Scratch")
}

// isScratchMethod exempts the pool implementation itself.
func isScratchMethod(pass *framework.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return false
	}
	return isScratchType(tv.Type)
}

// checkPooledShapes flags make() of three-level slice shapes in scratch-
// threading functions: those are the message/view matrices the pools
// provide via getPay/getViews.
func checkPooledShapes(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(call.Args) == 0 {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Parent() != types.Universe {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok {
			return true
		}
		if sliceDepth(tv.Type) >= 3 {
			pass.Reportf(call.Pos(), "make of message-matrix shape %s in a *Scratch-threading function: draw it from the pool (getPay/getViews) instead",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
		}
		return true
	})
}

// sliceDepth counts structural (unnamed) slice nesting. Named element
// types stop the count: a [][]PolyElem operand row matrix is a fresh
// engine input, not a pooled [][][]Word message matrix, even when the
// named type is itself a slice.
func sliceDepth(t types.Type) int {
	depth := 0
	for {
		sl, ok := t.(*types.Slice)
		if !ok {
			return depth
		}
		depth++
		t = sl.Elem()
	}
}
