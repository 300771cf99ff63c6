package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

// BenchmarkServeOpenLoop is the service plane's rate sweep: an open loop
// through the HTTP handler over the six ops at n ∈ {16, 32} from three
// tenants, one sub-benchmark per offered rate. Request i is due at
// start + i/rate and fires then — or at once, if the generator is late —
// whether or not earlier requests have been answered, so its latency, due
// to answer, includes the queueing. Each rate reports the p50 and p99
// latency of the answered requests in ms, the share answered 429, and the
// mean batch (requests answered per pool checkout).
//
//	go test -run '^$' -bench ServeOpenLoop -benchtime 2s ./internal/serve/
func BenchmarkServeOpenLoop(b *testing.B) {
	srv := New(DefaultConfig())
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	type query struct {
		path string
		body []byte
	}
	var queries []query
	for _, n := range []int{16, 32} {
		for _, op := range Ops {
			body := map[string]any{"a": testMat(n, int64(n))}
			switch op {
			case OpMatMul, OpDistanceProduct:
				body["b"] = testMat(n, int64(n+1))
			case OpMatMulBool:
				body["a"], body["b"] = mod2(testMat(n, int64(n))), mod2(testMat(n, int64(n+1)))
			case OpTriangles, OpSparseSquare:
				body["a"] = circulant(n, 1, 3)
			}
			raw, err := json.Marshal(body)
			if err != nil {
				b.Fatal(err)
			}
			queries = append(queries, query{"/v1/" + string(op), raw})
		}
	}
	tenants := []string{"acme", "globex", "initech"}
	fire := func(i int) int {
		q := queries[i%len(queries)]
		req := httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
		req.Header.Set("X-Tenant", tenants[i%len(tenants)])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for i := range queries {
		if code := fire(i); code != http.StatusOK {
			b.Fatalf("warm-up %s: status %d", queries[i].path, code)
		}
	}

	for _, rate := range []int{400, 1600, 6400, 25600} {
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			lat := make([]time.Duration, b.N)
			codes := make([]int, b.N)
			pool0 := srv.Pool()
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					codes[i] = fire(i)
					lat[i] = time.Since(due)
				}()
			}
			wg.Wait()
			b.StopTimer()
			pool1 := srv.Pool()

			var ok []time.Duration
			rejected := 0
			for i, code := range codes {
				switch code {
				case http.StatusOK:
					ok = append(ok, lat[i])
				case http.StatusTooManyRequests:
					rejected++
				default:
					b.Fatalf("request %d: status %d", i, code)
				}
			}
			slices.Sort(ok)
			pct := func(p float64) float64 {
				if len(ok) == 0 {
					return 0
				}
				return float64(ok[int(p*float64(len(ok)-1))]) / 1e6
			}
			gets := (pool1.Hits + pool1.Misses) - (pool0.Hits + pool0.Misses)
			b.ReportMetric(pct(0.50), "p50_ms")
			b.ReportMetric(pct(0.99), "p99_ms")
			b.ReportMetric(float64(rejected)/float64(b.N), "429_share")
			b.ReportMetric(float64(len(ok))/float64(max(gets, 1)), "mean_batch")
		})
	}
}

// circulant is the undirected n-vertex graph joining i to i ± d for each
// offset d, as a 0/1 adjacency matrix: sparse enough for sparse-square's
// forced sparse engine at every n.
func circulant(n int, offsets ...int) [][]int64 {
	a := make([][]int64, n)
	for i := range a {
		a[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for _, d := range offsets {
			j := (i + d) % n
			a[i][j], a[j][i] = 1, 1
		}
	}
	return a
}
