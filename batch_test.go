package algclique_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/clique"
)

func batchItems(n, k int) []cc.BatchItem {
	items := make([]cc.BatchItem, k)
	for i := range items {
		items[i] = cc.BatchItem{A: sessionTestMat(n, int64(100+2*i)), B: sessionTestMat(n, int64(101+2*i))}
	}
	return items
}

// TestBatchMatchesSingleCalls pins the batch entry points to the
// item-by-item results: amortising plan/scratch/arming across the batch
// must not change a single product or its charged stats.
func TestBatchMatchesSingleCalls(t *testing.T) {
	const n, k = 16, 4
	items := batchItems(n, k)

	single, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	batched, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	for name, run := range map[string]struct {
		one   func(a, b cc.Mat, opts ...cc.CallOption) (cc.Mat, cc.Stats, error)
		batch func(items []cc.BatchItem, opts ...cc.CallOption) ([]cc.Mat, []cc.Stats, error)
	}{
		"MatMulBatch":          {one: single.MatMul, batch: batched.MatMulBatch},
		"MatMulBoolBatch":      {one: single.MatMulBool, batch: batched.MatMulBoolBatch},
		"DistanceProductBatch": {one: single.DistanceProduct, batch: batched.DistanceProductBatch},
	} {
		prods, stats, err := run.batch(items)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(prods) != k || len(stats) != k {
			t.Fatalf("%s: got %d products, %d stats, want %d", name, len(prods), len(stats), k)
		}
		for i, it := range items {
			want, wantStats, err := run.one(it.A, it.B)
			if err != nil {
				t.Fatalf("%s single %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(prods[i], want) {
				t.Errorf("%s: batch product %d differs from the single call", name, i)
			}
			if stats[i].Rounds != wantStats.Rounds || stats[i].Words != wantStats.Words {
				t.Errorf("%s: batch stats %d = %d rounds / %d words, single call %d / %d",
					name, i, stats[i].Rounds, stats[i].Words, wantStats.Rounds, wantStats.Words)
			}
		}
	}
}

// TestBatchAmortisesSetup is the amortisation gate: a k-item batch must
// allocate strictly less than k single session calls, because the batch
// resolves the plan and scratch and arms the network configuration once
// instead of per pair.
func TestBatchAmortisesSetup(t *testing.T) {
	const n, k = 16, 8
	items := batchItems(n, k)

	single, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	batched, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	// Warm both sessions so pooled buffers and ledger capacity exist.
	if _, _, err := single.DistanceProduct(items[0].A, items[0].B); err != nil {
		t.Fatal(err)
	}
	if _, _, err := batched.DistanceProductBatch(items); err != nil {
		t.Fatal(err)
	}

	singles := testing.AllocsPerRun(5, func() {
		for _, it := range items {
			if _, _, err := single.DistanceProduct(it.A, it.B); err != nil {
				t.Fatal(err)
			}
		}
	})
	inBatch := testing.AllocsPerRun(5, func() {
		if _, _, err := batched.DistanceProductBatch(items); err != nil {
			t.Fatal(err)
		}
	})
	if inBatch >= singles {
		t.Errorf("batch of %d allocates %.0f, %d single calls allocate %.0f — the batch must be strictly cheaper",
			k, inBatch, k, singles)
	}
	t.Logf("allocs per %d-op batch: %.0f batched vs %.0f single calls", k, inBatch, singles)
}

// TestBatchPerItemContext threads one item's cancellation context through
// a batch: the items before it complete, the cancelled item aborts with
// its context's error, and the batch stops there.
func TestBatchPerItemContext(t *testing.T) {
	const n = 16
	items := batchItems(n, 3)
	sess, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the second item must abort immediately
	items[1].Opts = []cc.CallOption{cc.WithContext(ctx)}
	prods, stats, err := sess.MatMulBatch(items)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(prods) != 1 || len(stats) != 1 {
		t.Fatalf("got %d products before the cancelled item, want 1", len(prods))
	}
	want, _, err := sess.MatMul(items[0].A, items[0].B)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prods[0], want) {
		t.Error("the item before the cancelled one returned a wrong product")
	}

	// The session stays fully usable after a batch abort.
	if _, _, err := sess.MatMul(items[2].A, items[2].B); err != nil {
		t.Fatalf("session unusable after batch abort: %v", err)
	}
}

// TestBatchPerItemRoundLimit arms a round limit on one item only.
func TestBatchPerItemRoundLimit(t *testing.T) {
	const n = 16
	items := batchItems(n, 2)
	sess, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	items[0].Opts = []cc.CallOption{cc.WithRoundLimit(1)}
	prods, _, err := sess.DistanceProductBatch(items)
	var rle *clique.RoundLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want a round-limit abort on item 0", err)
	}
	if len(prods) != 0 {
		t.Fatalf("got %d products, want 0 (item 0 aborted)", len(prods))
	}
	// The limit is per item: the same batch without it completes.
	items[0].Opts = nil
	prods, _, err = sess.DistanceProductBatch(items)
	if err != nil || len(prods) != 2 {
		t.Fatalf("unlimited batch: %d products, err %v", len(prods), err)
	}
}

// TestBatchWrongSizeItem rejects a mis-sized item mid-batch without
// losing the results before it.
func TestBatchWrongSizeItem(t *testing.T) {
	const n = 16
	items := batchItems(n, 1)
	sess, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bad := sessionTestMat(n-1, 9)
	prods, _, err := sess.MatMulBatch(append(items, cc.BatchItem{A: bad, B: bad}))
	if err == nil {
		t.Fatal("mis-sized item accepted")
	}
	if len(prods) != 1 {
		t.Fatalf("got %d products before the mis-sized item, want 1", len(prods))
	}
}
