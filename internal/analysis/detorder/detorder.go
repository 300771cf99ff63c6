// Package detorder defines the cliquevet analyzer enforcing the
// simulator's determinism contract: the Censor-Hillel et al. round bounds
// (and the oblivious-schedule tests that pin them) only hold when every
// run of an algorithm produces the identical message schedule, so the
// deterministic packages must not let Go's randomised map iteration
// order, wall-clock time, or the global math/rand source reach message
// construction or round structure.
//
// Flagged:
//   - range over a map-typed expression (iteration order is randomised
//     per run; sort the keys, use the clear() builtin for wholesale
//     deletion, or annotate //cc:detorder-ok(reason) when order provably
//     cannot reach messages or accounting)
//   - time.Now / time.Since / time.After calls
//   - package-level math/rand and math/rand/v2 draws (rand.Int, IntN,
//     Shuffle, Perm, …), which read the shared global source; explicitly
//     seeded rand.New(rand.NewPCG(seed, …)) generators remain legal and
//     are how colour-coding and certification probes stay reproducible
//   - FaultPlan composite literals without an explicit Seed field: the
//     fault plane's injected schedule is a pure function of the seed, so
//     an implicit zero seed hides the choice that makes a chaos run
//     replayable (Seed: 0 spelled out is legal — the choice is visible)
package detorder

import (
	"go/ast"
	"go/types"

	"github.com/algebraic-clique/algclique/internal/analysis/framework"
)

// Analyzer is the detorder check.
var Analyzer = &framework.Analyzer{
	Name: "detorder",
	Doc:  "flag nondeterminism sources (map iteration order, wall clock, global rand) in deterministic simulator packages",
	Run:  run,
}

// randConstructors are the explicitly-seeded entry points that remain
// legal: they return a caller-owned deterministic generator.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *framework.Pass) error {
	pass.Preorder(func(n ast.Node) {
		switch node := n.(type) {
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[node.X]
			if !ok {
				return
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(node.Pos(),
					"unsorted range over map %s: iteration order is nondeterministic and must not reach messages or round structure (sort the keys, or use clear())",
					types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
			}
		case *ast.CallExpr:
			checkCall(pass, node)
		case *ast.CompositeLit:
			checkFaultPlan(pass, node)
		}
	})
	return nil
}

// checkFaultPlan flags FaultPlan composite literals that do not set Seed
// explicitly. The rule is structural (any struct named FaultPlan with a
// Seed field), so it covers both clique.FaultPlan and the root package's
// alias without importing either — and stays testable on fixtures.
func checkFaultPlan(pass *framework.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok || named.Obj().Name() != "FaultPlan" {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || !hasField(st, "Seed") {
		return
	}
	if len(lit.Elts) > 0 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
			return // positional literal: every field, Seed included, is spelled out
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Seed" {
				return
			}
		}
	}
	pass.Reportf(lit.Pos(),
		"FaultPlan literal without an explicit Seed: fault schedules are deterministic in their seed, so spell it out (Seed: 0 included) to keep the injected run replayable")
}

// hasField reports whether the struct declares a field with the given
// name.
func hasField(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}

// checkCall flags package-level calls into time's clock and math/rand's
// global source. Methods on a caller-seeded *rand.Rand have a receiver
// and fall through.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // method call (e.g. on a seeded *rand.Rand)
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until", "After", "Tick":
			pass.Reportf(call.Pos(),
				"time.%s in a deterministic package: wall-clock values must not influence schedules or results", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global random source: use an explicitly seeded rand.New(rand.NewPCG(seed, …)) so runs are reproducible",
				fn.Pkg().Name(), fn.Name())
		}
	}
}
