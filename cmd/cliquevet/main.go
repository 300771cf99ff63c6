// Command cliquevet runs the repository's contract-enforcing analyzer
// suite (see internal/analysis): Mail lifetime, determinism, and hot-path
// allocation discipline.
//
// Standalone (the CI gating step):
//
//	go run ./cmd/cliquevet ./...
//
// As a go vet tool (the local one-liner, see README "Tooling"):
//
//	go build -o /tmp/cliquevet ./cmd/cliquevet && go vet -vettool=/tmp/cliquevet ./...
//
// In vettool mode the go command invokes the binary once per package with
// a *.cfg JSON file; cliquevet re-type-checks that package from source
// through the same offline loader the standalone mode uses, so both modes
// agree exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/algebraic-clique/algclique/internal/analysis"
	"github.com/algebraic-clique/algclique/internal/analysis/framework"
)

func main() {
	// go vet probes the tool twice before use: -V=full must print a
	// stable identity line, and -flags must print the supported flags as
	// JSON (none). Handle both before normal flag parsing.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full":
			fmt.Printf("cliquevet version 1 (offline contract suite)\n")
			return
		case "-flags":
			fmt.Println("[]")
			return
		}
	}
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, c := range analysis.Checks() {
			fmt.Printf("%-14s %s\n", c.Analyzer.Name, c.Analyzer.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetTool(args[0]))
	}
	os.Exit(runStandalone())
}

// runStandalone analyses the whole module containing the working
// directory (any ./... style arguments select the same scope — the suite
// is repo-global by design).
func runStandalone() int {
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := framework.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.RunRepo(root)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cliquevet: %d contract violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// vetConfig is the subset of the go vet unit-checker config cliquevet
// needs: the package identity and where to write the (empty) facts file
// the go command caches.
type vetConfig struct {
	ImportPath                string
	Dir                       string
	GoFiles                   []string
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetTool implements the go vet driver protocol for one package.
func runVetTool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(err)
	}
	// cliquevet keeps no cross-package facts; go vet only requires that
	// the output file exists.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fatal(err)
		}
	}
	dir := cfg.Dir
	if dir == "" && len(cfg.GoFiles) > 0 {
		dir = filepath.Dir(cfg.GoFiles[0])
	}
	root, err := framework.FindModuleRoot(dir)
	if err != nil {
		// Outside the module (stdlib facts pass): nothing to check.
		return 0
	}
	loader := framework.NewLoader(map[string]string{analysis.ModulePath: root})
	pkg, err := loader.LoadDir(dir, cfg.ImportPath)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	diags, err := analysis.RunPackages([]*framework.Package{pkg})
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2 // the go vet convention for "diagnostics reported"
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cliquevet:", err)
	os.Exit(1)
}
