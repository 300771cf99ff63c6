package main

import (
	"context"
	"flag"
	"testing"

	"github.com/algebraic-clique/algclique/internal/serve"
)

// TestBudgetFlag: -budget-mb 0 is documented as unbounded, so it must
// reach the pool as a budget ≤ 0 — not as serve.Config's zero value,
// which means the 256 MiB default.
func TestBudgetFlag(t *testing.T) {
	defer flag.Set("budget-mb", flag.Lookup("budget-mb").DefValue)
	for _, c := range []struct {
		flag      string
		unbounded bool
		budget    int64
	}{
		{flag: "0", unbounded: true},
		{flag: "-1", unbounded: true},
		{flag: "256", budget: 256 << 20},
		{flag: "64", budget: 64 << 20},
	} {
		if err := flag.Set("budget-mb", c.flag); err != nil {
			t.Fatal(err)
		}
		srv := serve.New(config())
		got := srv.Pool().BudgetBytes
		srv.Shutdown(context.Background())
		switch {
		case c.unbounded && got > 0:
			t.Errorf("-budget-mb %s: pool budget %d bytes, want unbounded (≤ 0)", c.flag, got)
		case !c.unbounded && got != c.budget:
			t.Errorf("-budget-mb %s: pool budget %d bytes, want %d", c.flag, got, c.budget)
		}
	}
}
