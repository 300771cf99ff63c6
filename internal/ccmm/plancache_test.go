package ccmm_test

import (
	"math"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
)

// TestPlanCacheConstantUnderNaNThreshold: the plan cache is keyed by clique
// size and engine alone, so a session whose threshold no key could ever
// match — NaN — still resolves one plan, not one per operation. NaN (like 0
// and negatives) turns the census off, so the products report no routing.
func TestPlanCacheConstantUnderNaNThreshold(t *testing.T) {
	const n = 16
	a := make(cc.Mat, n)
	for i := range a {
		a[i] = make([]int64, n)
		a[i][(i+1)%n] = 1
	}
	s, err := cc.NewClique(n, cc.WithSparseThreshold(math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mul := func() {
		_, st, err := s.MatMul(a, a)
		if err != nil {
			t.Fatal(err)
		}
		if st.Routing != "" {
			t.Fatalf("NaN threshold ran the census: routing %q", st.Routing)
		}
	}
	mul() // the first operation resolves the plan
	before := ccmm.PlanCacheLen()
	for i := 0; i < 1000; i++ {
		mul()
	}
	if after := ccmm.PlanCacheLen(); after != before {
		t.Fatalf("plan cache grew from %d to %d entries over 1000 operations", before, after)
	}
}
