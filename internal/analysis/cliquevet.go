// Package analysis assembles cliquevet: the multichecker of custom
// analyzers that mechanise the contracts a passing test run cannot show
// broken — Mail lifetime, determinism, and hot-path allocation
// discipline. DESIGN.md "Enforced invariants" maps each contract to its
// analyzer; cmd/cliquevet is the standalone and go vet -vettool driver,
// and TestRepoIsClean keeps `go test ./...` failing on any regression CI
// would catch.
package analysis

import (
	"strings"

	"github.com/algebraic-clique/algclique/internal/analysis/detorder"
	"github.com/algebraic-clique/algclique/internal/analysis/framework"
	"github.com/algebraic-clique/algclique/internal/analysis/hotalloc"
	"github.com/algebraic-clique/algclique/internal/analysis/mailretain"
)

// ModulePath is the repository's module path.
const ModulePath = "github.com/algebraic-clique/algclique"

// Check pairs an analyzer with its package scope. Scoping lives here, in
// the multichecker, so the analyzers themselves stay testable on fixture
// packages with arbitrary import paths.
type Check struct {
	Analyzer *framework.Analyzer
	// Applies reports whether the analyzer runs on the package with the
	// given import path.
	Applies func(pkgPath string) bool
}

// deterministicPkgs are the packages whose schedules and outputs the
// oblivious/determinism tests pin: map order, wall clock, and global rand
// must not reach them.
var deterministicPkgs = []string{
	"internal/ccmm", "internal/clique", "internal/routing",
	"internal/subgraph", "internal/distance", "internal/girth",
}

func suffixIn(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Checks returns the full cliquevet suite with its package scoping.
func Checks() []Check {
	everywhere := func(string) bool { return true }
	return []Check{
		// The simulator package owns the Mail machinery it hands out, so
		// the lifetime analyzer starts one layer above it.
		{mailretain.Analyzer, func(p string) bool {
			return !suffixIn(p, []string{"internal/clique"})
		}},
		{detorder.Analyzer, func(p string) bool {
			return suffixIn(p, deterministicPkgs)
		}},
		{hotalloc.Analyzer, everywhere},
	}
}

// skipPkg excludes the analysis tooling itself: it is host-side
// infrastructure, not simulator code bound by the simulator's contracts.
func skipPkg(path string) bool {
	return strings.HasPrefix(path, ModulePath+"/internal/analysis") ||
		path == ModulePath+"/cmd/cliquevet"
}

// RunRepo loads every package of the module rooted at root and applies
// the scoped suite, returning all diagnostics in deterministic order.
func RunRepo(root string) ([]framework.Diagnostic, error) {
	loader := framework.NewLoader(map[string]string{ModulePath: root})
	pkgs, err := loader.LoadModule(ModulePath, root)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs)
}

// RunPackages applies the scoped suite to the given packages.
func RunPackages(pkgs []*framework.Package) ([]framework.Diagnostic, error) {
	checks := Checks()
	var diags []framework.Diagnostic
	for _, pkg := range pkgs {
		if skipPkg(pkg.Path) {
			continue
		}
		for _, c := range checks {
			if !c.Applies(pkg.Path) {
				continue
			}
			if err := framework.RunAnalyzer(c.Analyzer, pkg, &diags); err != nil {
				return diags, err
			}
		}
	}
	return diags, nil
}
