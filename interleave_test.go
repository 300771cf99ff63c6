package algclique_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	cc "github.com/algebraic-clique/algclique"
)

// interleaveOps are the nine graph_pipeline operations plus the products
// that share their networks' working sets: the int64, ValW, Boolean and
// tuple arms, dense and CSR operands, ring-padded and unpadded sizes.
func interleaveOps(t *testing.T, n int) []graphOp {
	ops := graphPipelineOps(n, 3)
	rng := rand.New(rand.NewPCG(17, uint64(n)))
	a, b := randMat(rng, n, 9), randMat(rng, n, 9)
	adj := make(cc.Mat, n)
	g := cc.GNP(n, 3/float64(n), false, 5)
	for u := range adj {
		adj[u] = make([]int64, n)
		for _, v := range g.Neighbors(u) {
			adj[u][v] = 1
		}
	}
	csr, err := cc.CSRFromMat(adj, 0)
	if err != nil {
		t.Fatal(err)
	}
	return append(ops,
		graphOp{"matmul", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) { return s.MatMul(a, b, opts...) }},
		graphOp{"distance", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.DistanceProduct(a, b, opts...)
		}},
		graphOp{"matmulbool", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.MatMulBool(adj, adj, opts...)
		}},
		graphOp{"square_csr", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.SquareAdjacencyCSR(csr, opts...)
		}},
	)
}

// TestInterleavedOpsMatchFreshSessions is the generic check that no
// operation reads what another left behind. Everything on a network shares
// one working set whose slots are documented "contents stale; callers
// overwrite" and one free list of row matrices, so thirteen operations run
// in a seeded random order, three times over, on one session — and every
// answer and every Stats must equal the same operation's on a session that
// never ran anything else. The session poisons every matrix on its way back
// to the free list, which turns a use after recycling into a wrong answer
// here rather than a rare one later.
func TestInterleavedOpsMatchFreshSessions(t *testing.T) {
	transports := []struct {
		name string
		opts []cc.SessionOption
	}{
		{"direct", nil},
		{"wire", []cc.SessionOption{cc.WithWireTransport()}},
	}
	for _, n := range []int{27, 64} {
		if n == 64 && testing.Short() {
			continue
		}
		for _, tr := range transports {
			t.Run(fmt.Sprintf("n=%d/%s", n, tr.name), func(t *testing.T) {
				ops := interleaveOps(t, n)
				type result struct {
					answer any
					stats  cc.Stats
				}
				want := make([]result, len(ops))
				for i, op := range ops {
					fresh, err := cc.NewClique(n, tr.opts...)
					if err != nil {
						t.Fatal(err)
					}
					want[i].answer, want[i].stats, err = op.run(fresh)
					fresh.Close()
					if err != nil {
						t.Fatalf("%s on a fresh session: %v", op.name, err)
					}
				}
				sess, err := cc.NewClique(n, tr.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				sess.PoisonRecycled()
				rng := rand.New(rand.NewPCG(23, uint64(n)))
				for round := 0; round < 3; round++ {
					for _, i := range rng.Perm(len(ops)) {
						got, st, err := ops[i].run(sess)
						if err != nil {
							t.Fatalf("round %d, %s: %v", round, ops[i].name, err)
						}
						if !reflect.DeepEqual(got, want[i].answer) {
							t.Fatalf("round %d, %s: answer differs from a fresh session's", round, ops[i].name)
						}
						if !reflect.DeepEqual(st, want[i].stats) {
							t.Fatalf("round %d, %s: stats %+v, a fresh session charges %+v", round, ops[i].name, st, want[i].stats)
						}
					}
				}
			})
		}
	}
}
