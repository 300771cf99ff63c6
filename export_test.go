package algclique

import (
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// recycledSentinel is what PoisonRecycled writes over a recycled matrix: no
// count, distance, hop or 0/1 entry any algorithm here produces.
const recycledSentinel int64 = -0x5eed5eed5eed

// PoisonRecycled makes the working set of each of the session's networks
// overwrite every row matrix returned to its free list with a sentinel, so
// that whoever still reads a matrix after recycling it computes garbage at
// once instead of when the slot happens to be handed out again. (Session
// Trim drops the working sets, and the hook with them.)
func (s *Clique) PoisonRecycled() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sizes := []int{s.nAny}
	if s.ringErr == nil {
		sizes = append(sizes, s.nRing)
	}
	for _, n := range sizes {
		ccmm.ScratchOf(s.networkFor(n)).SetRecycleHook(poisonMat)
	}
}

func poisonMat(m any) {
	switch m := m.(type) {
	case *ccmm.RowMat[int64]:
		for _, row := range m.Rows {
			for j := range row {
				row[j] = recycledSentinel
			}
		}
	case *ccmm.RowMat[ring.ValW]:
		for _, row := range m.Rows {
			for j := range row {
				row[j] = ring.ValW{V: recycledSentinel, W: recycledSentinel}
			}
		}
	}
}
