package ccmm

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// PlanCacheLen counts the memoised plans, for the test that the cache
// cannot grow with the number of operations.
func PlanCacheLen() int {
	n := 0
	planCache.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// AutoDenseEngine is the engine an Auto plan runs a dense-routed product
// of the named typed algebra ("int", "bool" or "min-plus") on, on n nodes.
func AutoDenseEngine(n int, alg string) Engine {
	p := PlanFor(n, EngineAuto)
	switch alg {
	case "int":
		return denseEngine(p, &intAlgebra, p.RingEngine)
	case "bool":
		return denseEngine(p, &boolAlgebra, p.RingEngine)
	}
	return denseEngine(p, &minPlusAlgebra, p.SemiringEngine)
}

// ForeignArms names, by type, the working set's typed arms other than
// int64's: the int64 arm itself and the tuple formats over it.
func ForeignArms(sc *Scratch) []string {
	var out []string
	for _, arm := range sc.typed {
		switch arm.(type) {
		case *typedScratch[int64], *typedScratch[ring.Tuple[int64]], *typedScratch[ring.Tuple[ring.Tuple[int64]]]:
		default:
			out = append(out, fmt.Sprintf("%T", arm))
		}
	}
	return out
}
