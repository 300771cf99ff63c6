package algclique_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/clique"
)

func TestWithRoundLimitReturnsTypedError(t *testing.T) {
	g := cc.RandomConnectedWeighted(27, 0.3, 20, true, 1)
	// Exact APSP needs ~190 rounds at n = 27; a 10-round budget must abort
	// cleanly with the typed error, not a panic.
	s := openSession(t, g.N())
	_, _, err := s.APSP(g, cc.WithRoundLimit(10))
	var lim *clique.RoundLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *clique.RoundLimitError", err)
	}
	if lim.Limit != 10 {
		t.Errorf("limit = %d, want 10", lim.Limit)
	}

	// A generous budget must succeed.
	if _, _, err := s.APSP(g, cc.WithRoundLimit(100000)); err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
}

func TestWithRoundLimitAcrossEntryPoints(t *testing.T) {
	g := cc.GNP(64, 0.3, false, 2)
	s := openSession(t, 64)
	cases := []struct {
		name string
		run  func() error
	}{
		{"triangles", func() error { _, _, err := s.CountTriangles(g, cc.WithRoundLimit(3)); return err }},
		{"c4count", func() error { _, _, err := s.CountFourCycles(g, cc.WithRoundLimit(3)); return err }},
		{"seidel", func() error { _, _, err := s.APSPUnweighted(g, cc.WithRoundLimit(3)); return err }},
		{"matmul", func() error {
			a := randMat(nil2rand(), 64, 5)
			_, _, err := s.MatMul(a, a, cc.WithRoundLimit(2))
			return err
		}},
		{"girth", func() error {
			_, _, _, err := s.Girth(g, cc.WithRoundLimit(3), cc.WithColourings(5))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var lim *clique.RoundLimitError
			if err := tc.run(); !errors.As(err, &lim) {
				t.Errorf("err = %v, want round-limit error", err)
			}
		})
	}
}

// nil2rand returns a fresh deterministic rand for test-matrix construction.
func nil2rand() *rand.Rand { return rand.New(rand.NewPCG(9, 9)) }

// abortOps are the reductions the abort sweep unwinds: each is a chain of
// products on its network's one working set — witness-carrying squarings,
// Seidel's recursion then one witness-tagged product, two ring products and a
// transpose, Boolean doubling with a binary search, and colour-coding's
// product tree — so an abort can land inside any engine, between two
// products, or in a broadcast of the reduction itself.
func abortOps(n int) []graphOp {
	wg := cc.RandomConnectedWeighted(n, 0.3, 20, true, 7)
	g := cc.GNP(n, 0.3, false, 8)
	ring := cc.Cycle(n, true) // girth n: the full doubling ladder and binary search
	return []graphOp{
		{"APSP", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) { return s.APSP(wg, opts...) }},
		{"APSPUnweightedWithRouting", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.APSPUnweightedWithRouting(g, opts...)
		}},
		{"CountFiveCycles", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.CountFiveCycles(g, opts...)
		}},
		{"GirthDirected", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			v, ok, st, err := s.Girth(ring, opts...)
			return [2]any{v, ok}, st, err
		}},
		{"DetectCycle4", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.DetectCycle(g, 4, opts...)
		}},
	}
}

// TestAbortedOpLeavesWorkingSetClean: the engines' working set belongs to
// the network and so outlives an operation that a round budget, a cancelled
// context or a crashed node unwound mid-product — whatever that operation
// had posted, borrowed or half-written, the next one inherits the same
// object. For each reduction the sweep aborts at the round indices below
// the clean run's count — every one up to 64 and a stride beyond on the
// direct transport, a stride throughout on the wire and under -short — by
// context after 1, half and all but one of the polls a counted clean run
// makes, and by a node crash at a few rounds; each
// abort must surface as its typed error, and the unrestricted rerun on the
// same session must return the answer and the Stats — rounds, words, phase
// list — of a session that never aborted.
func TestAbortedOpLeavesWorkingSetClean(t *testing.T) {
	const n = 27
	transports := []struct {
		name  string
		opts  []cc.SessionOption
		dense int64 // every round index below this one, a stride from there on
	}{
		{"direct", nil, 64},
		{"wire", []cc.SessionOption{cc.WithWireTransport()}, 0},
	}
	for _, tr := range transports {
		if testing.Short() {
			tr.dense = 0
		}
		for _, op := range abortOps(n) {
			t.Run(tr.name+"/"+op.name, func(t *testing.T) {
				fresh, err := cc.NewClique(n, tr.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Close()
				want, wantSt, err := op.run(fresh)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := cc.NewClique(n, tr.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				// abort runs the op under opt, wants the typed error, and
				// reruns it clean.
				abort := func(label string, typed func(error) bool, opt cc.CallOption) {
					t.Helper()
					if _, _, err := op.run(sess, opt); !typed(err) {
						t.Fatalf("%s: err = %v (%T), want the typed abort", label, err, err)
					}
					got, st, err := op.run(sess)
					if err != nil {
						t.Fatalf("rerun after %s: %v", label, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("rerun after %s: answer differs from a fresh session's", label)
					}
					if !reflect.DeepEqual(st, wantSt) {
						t.Fatalf("rerun after %s: stats %+v, a fresh session charges %+v", label, st, wantSt)
					}
				}
				rounds := wantSt.Rounds
				step := int64(1)
				for k := int64(1); k < rounds; k += step {
					if k >= tr.dense {
						step = rounds/32 + 1
					}
					abort(fmt.Sprintf("round limit %d", k), func(err error) bool {
						var lim *clique.RoundLimitError
						return errors.As(err, &lim)
					}, cc.WithRoundLimit(k))
				}
				// The poll counts come from a counted clean run: a context
				// that cancels after k polls aborts exactly when the op polls
				// more than k times.
				counted := &cancelAfterCalls{Context: context.Background(), remaining: math.MaxInt}
				if _, _, err := op.run(fresh, cc.WithContext(counted)); err != nil {
					t.Fatal(err)
				}
				own := math.MaxInt - counted.remaining
				if own < 2 {
					t.Fatalf("a clean run polls its context %d times; the sweep needs two", own)
				}
				t.Logf("a clean run polls its context %d times", own)
				for _, polls := range slices.Compact([]int{1, own / 2, own - 1}) {
					ctx := &cancelAfterCalls{Context: context.Background(), remaining: polls}
					abort(fmt.Sprintf("cancel after %d polls", polls), func(err error) bool {
						var canc *clique.CanceledError
						return errors.As(err, &canc)
					}, cc.WithContext(ctx))
				}
				for _, k := range []int64{1, rounds / 3, rounds / 2} {
					abort(fmt.Sprintf("crash at round %d", k), func(err error) bool {
						var fe *cc.FaultError
						return errors.As(err, &fe)
					}, cc.WithFaultInjection(cc.FaultPlan{Seed: 5, CrashAtRound: max(k, 1), CrashNode: 3}))
				}
			})
		}
	}
}
