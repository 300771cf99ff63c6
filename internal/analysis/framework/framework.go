// Package framework is a self-contained, offline mirror of the
// golang.org/x/tools/go/analysis API surface that cliquevet's analyzers
// are written against: an Analyzer runs once per package over a Pass
// carrying the parsed files and full type information, and reports
// position-anchored Diagnostics.
//
// The build environment for this repository is hermetic (no module proxy),
// so x/tools cannot be a dependency; this package reproduces the exact
// subset the analyzers need — Analyzer/Pass/Diagnostic, a Preorder
// inspector, and comment-based suppressions — on the standard library
// alone. The shapes match x/tools deliberately: if the dependency ever
// becomes available, each analyzer ports by swapping the import and
// registering with multichecker.Main.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. It mirrors analysis.Analyzer:
// a unique name, user-facing documentation, and a Run function invoked
// once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's worth of input to an Analyzer.Run, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	supp  map[string]map[int]bool // file → lines carrying a //cc:*-ok marker
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Category string // analyzer name
	Message  string
}

// String formats the diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Category, d.Message)
}

// Reportf records a diagnostic at pos unless a suppression marker for this
// analyzer sits on the same line (or the line above, for markers written
// as their own comment line). Suppressions are spelled
// //cc:<analyzer>-ok(reason) and are themselves part of the enforced
// contract surface: they make every accepted violation grep-able.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines := p.supp[position.Filename]; lines != nil {
		if lines[position.Line] || lines[position.Line-1] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// buildSuppressions indexes, per file, the lines carrying a
// "//cc:<name>-ok" marker for the given analyzer name.
func buildSuppressions(fset *token.FileSet, files []*ast.File, name string) map[string]map[int]bool {
	marker := "cc:" + name + "-ok"
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, marker) {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// RunAnalyzer applies one analyzer to one loaded package and appends its
// findings to diags.
func RunAnalyzer(a *Analyzer, pkg *Package, diags *[]Diagnostic) error {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		diags:     diags,
		supp:      buildSuppressions(pkg.Fset, pkg.Files, a.Name),
	}
	return a.Run(pass)
}

// Preorder walks every file in the pass in depth-first preorder, calling f
// for each node (the x/tools inspector idiom without the fact machinery).
func (p *Pass) Preorder(f func(ast.Node)) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil {
				f(n)
			}
			return true
		})
	}
}

// HasMarker reports whether the comment group contains the given //cc:
// marker (e.g. "cc:hotpath").
func HasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}
