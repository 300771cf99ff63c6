package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// A gated experiment ends in a ledger: BENCH_<id>.json, keyed rows holding
// only what this simulator reproduces exactly for a seed — rounds, words,
// nnz, route names, fault outcomes. Nothing timed and no allocation count
// is in one: bench/ measures those (bench/README.md), and the allocation
// budgets live in go test (TestWarmGraphOpAllocs).

// ledgerRow is a row of one experiment's ledger: plain values, compared
// with ==, under a key that names the row in the file and in a failure.
type ledgerRow interface {
	comparable
	key() string
}

type ledgerFile[R ledgerRow] struct {
	Experiment string `json:"experiment"`
	Note       string `json:"note"`
	Rows       []R    `json:"rows"`
}

// gateLedger is the one gate. It compares the measured rows with the
// committed BENCH_<id>.json for equality — a row whose values differ, a
// committed row that was not measured and a measured row that is not
// committed each fail the run — and never writes a file that exists, so a
// passing run leaves the tree clean. With no file committed it writes one:
// a deliberate schedule change is `rm BENCH_<id>.json && go run
// ./cmd/ccbench <id>`, reviewed as a git diff.
func gateLedger[R ledgerRow](id, note string, rows []R) {
	path := "BENCH_" + id + ".json"
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		out, err := json.MarshalIndent(ledgerFile[R]{id, note, rows}, "", "  ")
		check(err)
		check(os.WriteFile(path, append(out, '\n'), 0o644))
		fmt.Printf("   no ledger committed: wrote %d rows to %s\n", len(rows), path)
		return
	}
	check(err)
	var committed ledgerFile[R]
	check(json.Unmarshal(raw, &committed))
	want := make(map[string]R, len(committed.Rows))
	fails := 0
	for _, r := range committed.Rows {
		if _, dup := want[r.key()]; dup {
			fmt.Fprintf(os.Stderr, "   LEDGER: row %s: committed twice in %s\n", r.key(), path)
			fails++
		}
		want[r.key()] = r
	}
	for _, r := range rows {
		k := r.key()
		w, ok := want[k]
		delete(want, k)
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "   LEDGER: row %s: measured %+v, not in %s\n", k, r, path)
			fails++
		case w != r:
			fmt.Fprintf(os.Stderr, "   LEDGER: row %s: measured %+v, committed %+v\n", k, r, w)
			fails++
		}
	}
	for _, r := range committed.Rows {
		if _, left := want[r.key()]; left {
			fmt.Fprintf(os.Stderr, "   LEDGER: row %s: committed in %s, not measured\n", r.key(), path)
			fails++
		}
	}
	if fails > 0 {
		check(fmt.Errorf("%s: %d row(s) differ from %s (if the change is deliberate: rm %s && go run ./cmd/ccbench %s)",
			id, fails, path, path, id))
	}
	fmt.Printf("   %d rows equal to %s\n", len(rows), path)
}
