// Package flow implements the small intra-function taint analysis behind
// cliquevet's mailretain analyzer, and the callee resolution it shares
// with the others: given a structural predicate marking source expressions
// (a Mail accessor call), it computes the local variables that alias those
// sources through assignments and reports whether an arbitrary expression
// is derived from one.
//
// The analysis is a conservative syntactic fixpoint, deliberately simple:
// it tracks named locals only (no field- or element-sensitive aliasing),
// which is exactly the granularity the enforced contract is written at —
// "a value derived from Mail". Taint follows aliasing only: slicing,
// address-of and type assertions always carry it, indexing, dereferencing
// and ranging carry it when the result is reference-like (slice, pointer,
// map, interface, channel), and arithmetic and conversions never do.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Set is the result of a taint computation over one function body.
type Set struct {
	info     *types.Info
	isSource func(ast.Expr) bool
	vars     map[types.Object]bool
}

// Compute runs the fixpoint over body.
func Compute(info *types.Info, body ast.Node, isSource func(ast.Expr) bool) *Set {
	s := &Set{info: info, isSource: isSource, vars: make(map[types.Object]bool)}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				changed = s.assign(st) || changed
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if i < len(st.Values) && s.Tainted(st.Values[i]) {
						changed = s.taintIdent(name) || changed
					}
				}
			case *ast.RangeStmt:
				if st.X != nil && s.Tainted(st.X) {
					if v, ok := st.Value.(*ast.Ident); ok && s.isRef(v) {
						changed = s.taintIdent(v) || changed
					}
				}
			}
			return true
		})
	}
	return s
}

// assign applies one assignment statement, returning whether new taint
// appeared.
func (s *Set) assign(st *ast.AssignStmt) bool {
	changed := false
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			if s.Tainted(st.Rhs[i]) {
				if id := baseIdent(lhs); id != nil {
					changed = s.taintIdent(id) || changed
				}
			}
		}
		return changed
	}
	// Tuple assignment a, b := f(): taint every LHS if the call is tainted.
	if len(st.Rhs) == 1 && s.Tainted(st.Rhs[0]) {
		for _, lhs := range st.Lhs {
			if id := baseIdent(lhs); id != nil {
				changed = s.taintIdent(id) || changed
			}
		}
	}
	return changed
}

// baseIdent unwraps an assignment target to its base identifier: writes
// through an index or dereference (buf[i] = src, *p = src) taint the
// container at the granularity this analysis tracks. Field selectors stay
// opaque — x.f = src does not taint x.
func baseIdent(lhs ast.Expr) *ast.Ident {
	for {
		switch e := unparen(lhs).(type) {
		case *ast.Ident:
			return e
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return nil
		}
	}
}

func (s *Set) taintIdent(id *ast.Ident) bool {
	obj := s.info.Defs[id]
	if obj == nil {
		obj = s.info.Uses[id]
	}
	if obj == nil || s.vars[obj] {
		return false
	}
	s.vars[obj] = true
	return true
}

// isRef reports whether the expression's type is reference-like, the
// subset through which indexing and ranging preserve aliasing.
func (s *Set) isRef(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	if !ok {
		if id, isID := e.(*ast.Ident); isID {
			if obj := s.info.Defs[id]; obj != nil {
				return isRefType(obj.Type())
			}
		}
		return false
	}
	return isRefType(tv.Type)
}

func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Interface, *types.Chan:
		return true
	}
	return false
}

// Tainted reports whether e derives from a source.
func (s *Set) Tainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if s.isSource(e) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := s.info.Uses[x]
		if obj == nil {
			obj = s.info.Defs[x]
		}
		return obj != nil && s.vars[obj]
	case *ast.ParenExpr:
		return s.Tainted(x.X)
	case *ast.SliceExpr:
		return s.Tainted(x.X)
	case *ast.IndexExpr:
		return s.isRef(x) && s.Tainted(x.X)
	case *ast.StarExpr:
		return s.isRef(x) && s.Tainted(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return s.Tainted(x.X)
		}
		return false
	case *ast.TypeAssertExpr:
		return s.Tainted(x.X)
	}
	return false
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

// CalleeOf resolves a call's target: the method or function name and, when
// resolvable, the package path of the receiver type or function. Calls to
// function-typed values (closures, parameters) report the value's name
// with funcValue=true.
func CalleeOf(info *types.Info, call *ast.CallExpr) (name, pkgPath string, funcValue bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				name = f.Name()
				if recv := sel.Recv(); recv != nil {
					pkgPath = pathOfType(recv)
				}
				if pkgPath == "" && f.Pkg() != nil {
					pkgPath = f.Pkg().Path()
				}
				return name, pkgPath, false
			}
			// Method-valued field or func-typed struct field.
			return sel.Obj().Name(), "", true
		}
		// Package-qualified call p.F(...).
		if obj := info.Uses[fun.Sel]; obj != nil {
			if f, ok := obj.(*types.Func); ok {
				pp := ""
				if f.Pkg() != nil {
					pp = f.Pkg().Path()
				}
				return f.Name(), pp, false
			}
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return obj.Name(), "", true
			}
		}
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			switch o := obj.(type) {
			case *types.Func:
				pp := ""
				if o.Pkg() != nil {
					pp = o.Pkg().Path()
				}
				return o.Name(), pp, false
			case *types.Var:
				if _, ok := o.Type().Underlying().(*types.Signature); ok {
					return o.Name(), "", true
				}
			}
		}
	}
	return "", "", false
}

// pathOfType digs the package path out of a (possibly pointered/named)
// receiver type.
func pathOfType(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			if tt.Obj().Pkg() != nil {
				return tt.Obj().Pkg().Path()
			}
			return ""
		default:
			return ""
		}
	}
}
