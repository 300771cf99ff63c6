package ccmm

import (
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// TestPhaseBoundsBelowCharges grades every phase of every engine of the
// parity table, at every golden size and on both transports, against its
// information bound: no schedule delivers an exchange in fewer rounds than
// ⌈max(out, in)/(n−1)⌉, so a phase charged below the bound it recorded is
// a ledger bug. Every phase that charged a round recorded an exchange.
func TestPhaseBoundsBelowCharges(t *testing.T) {
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		for key, l := range goldenRun(t, tr) {
			for _, p := range l.Phases {
				if p.Bound > p.Rounds {
					t.Errorf("%v %s: phase %s charged %d rounds below its bound %d", tr, key, p.Name, p.Rounds, p.Bound)
				}
				if p.Rounds > 0 && p.Flushes == 0 {
					t.Errorf("%v %s: phase %s charged %d rounds in no exchange", tr, key, p.Name, p.Rounds)
				}
			}
		}
	}
}
