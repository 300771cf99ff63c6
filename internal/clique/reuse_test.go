package clique_test

import (
	"context"
	"errors"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
)

func TestReset(t *testing.T) {
	c := clique.New(4, clique.WithRoundLimit(100))
	c.Phase("one")
	c.Send(0, 1, 7)
	c.Send(2, 3, 8)
	c.Flush()
	if c.Rounds() == 0 {
		t.Fatal("no rounds charged before reset")
	}
	c.Send(1, 2, 9) // left pending across the reset
	c.Reset()
	st := c.Stats()
	if st.Rounds != 0 || st.Words != 0 || st.Flushes != 0 || len(st.Phases) != 0 {
		t.Fatalf("stats after Reset = %+v, want zeroes", st)
	}
	if got := c.PendingWords(1); got != 0 {
		t.Fatalf("pending words after Reset = %d, want 0", got)
	}
	// The network is fully usable after Reset.
	c.Send(0, 1, 1)
	mail := c.Flush()
	if got := mail.From(1, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("delivery after Reset = %v", got)
	}
	if c.Rounds() != 1 {
		t.Fatalf("rounds after Reset+Flush = %d, want 1", c.Rounds())
	}
}

func TestSetRoundLimitRearms(t *testing.T) {
	c := clique.New(2)
	c.SetRoundLimit(1)
	c.Send(0, 1, 1)
	c.Send(0, 1, 2)
	func() {
		defer func() {
			var lim *clique.RoundLimitError
			if r := recover(); r == nil {
				t.Error("no panic with 2 words over a 1-round limit")
			} else if err, ok := r.(error); !ok || !errors.As(err, &lim) {
				t.Errorf("panic = %v, want *RoundLimitError", r)
			}
		}()
		c.Flush()
	}()
	c.Reset()
	c.SetRoundLimit(0) // disarmed
	c.Send(0, 1, 1)
	c.Send(0, 1, 2)
	c.Flush()
}

func TestSetContextCancels(t *testing.T) {
	c := clique.New(2)
	ctx, cancel := context.WithCancel(context.Background())
	c.SetContext(ctx)
	c.Send(0, 1, 1)
	c.Flush() // not yet cancelled
	cancel()
	c.Send(0, 1, 2)
	defer func() {
		r := recover()
		canc, ok := r.(*clique.CanceledError)
		if !ok {
			t.Fatalf("panic = %v, want *CanceledError", r)
		}
		if !errors.Is(canc, context.Canceled) {
			t.Errorf("CanceledError does not unwrap to context.Canceled: %v", canc)
		}
	}()
	c.Flush()
}

func TestWorkerPoolReuseAndClose(t *testing.T) {
	c := clique.New(64, clique.WithWorkers(4))
	for round := 0; round < 3; round++ {
		visited := make([]int, 64)
		c.ForEach(func(v int) { visited[v]++ })
		for v, k := range visited {
			if k != 1 {
				t.Fatalf("round %d: node %d visited %d times", round, v, k)
			}
		}
	}
	c.Close()
	c.Close() // idempotent
	// ForEach after Close starts a fresh pool.
	visited := make([]int, 64)
	c.ForEach(func(v int) { visited[v]++ })
	for v, k := range visited {
		if k != 1 {
			t.Fatalf("after Close: node %d visited %d times", v, k)
		}
	}
	c.Close()
}

// TestBroadcastNetworkAccounting runs the broadcast model through the
// network's configuration plane: broadcast rounds land in the open phase,
// trip the round limit, clear on Reset, and honour cancellation.
func TestBroadcastNetworkAccounting(t *testing.T) {
	c := clique.New(3)
	c.Phase("p1")
	c.BroadcastWord([]clique.Word{1, 2, 3})
	st := c.Stats()
	if st.Rounds != 1 || st.Words != 6 || len(st.Phases) != 1 || st.Phases[0].Rounds != 1 || st.Phases[0].Words != 6 {
		t.Fatalf("broadcast stats = %+v, want 1 round and 6 words in phase p1", st)
	}
	c.SetRoundLimit(1)
	func() {
		defer func() {
			if _, ok := recover().(*clique.RoundLimitError); !ok {
				t.Error("broadcast round limit did not trip")
			}
		}()
		c.BroadcastWord([]clique.Word{1, 2, 3})
	}()
	c.Reset()
	if st := c.Stats(); st.Rounds != 0 || st.Words != 0 || len(st.Phases) != 0 {
		t.Fatalf("broadcast stats after Reset = %+v", st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetContext(ctx)
	func() {
		defer func() {
			if _, ok := recover().(*clique.CanceledError); !ok {
				t.Error("broadcast cancellation did not trip")
			}
		}()
		c.Broadcast([][]clique.Word{{1}, {2, 3}, nil})
	}()
	if c.Rounds() != 0 {
		t.Errorf("a cancelled broadcast charged %d rounds, want 0", c.Rounds())
	}
}
