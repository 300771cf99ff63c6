package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	cc "github.com/algebraic-clique/algclique"
)

type wireResult struct {
	Op          string          `json:"op"`
	QueueWaitMs float64         `json:"queue_wait_ms"`
	ServiceMs   float64         `json:"service_ms"`
	Stats       json.RawMessage `json:"stats"`
	Count       int64           `json:"count"`
	Result      [][]int64       `json:"result"`
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHTTPMatMulRoundTrip(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	a, b := testMat(8, 1), testMat(8, 2)
	resp, body := post(t, srv, "/v1/matmul", map[string]any{"tenant": "web", "a": a, "b": b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// The streamed body must still be one valid JSON document.
	var res wireResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("streamed response is not valid JSON: %v\n%s", err, body)
	}
	if res.Op != "matmul" {
		t.Fatalf("op = %q", res.Op)
	}
	if !matEq(res.Result, naiveMul(a, b)) {
		t.Fatal("served product differs from the naive reference")
	}
	var stats struct {
		Rounds int64 `json:"Rounds"`
	}
	if err := json.Unmarshal(res.Stats, &stats); err != nil || stats.Rounds == 0 {
		t.Fatalf("stats missing from response: %v (%s)", err, res.Stats)
	}
	if ts := s.Tenants()["web"]; ts.Completed != 1 {
		t.Fatalf("tenant ledger = %+v, want the HTTP request folded in", ts)
	}
}

func TestHTTPTenantHeaderAndTriangles(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	n := 8
	adj := make([][]int64, n)
	for i := range adj {
		adj[i] = make([]int64, n)
	}
	adj[0][1], adj[1][0] = 1, 1
	adj[1][2], adj[2][1] = 1, 1
	adj[0][2], adj[2][0] = 1, 1

	raw, _ := json.Marshal(map[string]any{"a": adj})
	req, _ := http.NewRequest("POST", srv.URL+"/v1/triangles", bytes.NewReader(raw))
	req.Header.Set("X-Tenant", "hdr-tenant")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res wireResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count = %d, want 1", res.Count)
	}
	if ts := s.Tenants()["hdr-tenant"]; ts.Completed != 1 {
		t.Fatalf("X-Tenant header was not honoured: %+v", s.Tenants())
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	a, b := testMat(8, 1), testMat(8, 2)

	// Unknown op and malformed shapes are 400s.
	if resp, body := post(t, srv, "/v1/transpose", map[string]any{"tenant": "t", "a": a}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(t, srv, "/v1/matmul", map[string]any{"tenant": "t", "a": a}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing operand: status %d: %s", resp.StatusCode, body)
	}
	var envelope wireError
	resp, body := post(t, srv, "/v1/matmul", map[string]any{"a": a, "b": b})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing tenant: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("error envelope missing: %v (%s)", err, body)
	}

	// An unmeetable deadline is a 504: the request expires in the queue.
	resp, _ = post(t, srv, "/v1/matmul", map[string]any{"tenant": "t", "a": a, "b": b, "deadline_ms": 1})
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Fatalf("tight deadline: status %d", resp.StatusCode)
	}

	// Healthz flips and queries get 503 once draining.
	if resp, err := srv.Client().Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, err := srv.Client().Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	resp, body = post(t, srv, "/v1/matmul", map[string]any{"tenant": "t", "a": a, "b": b})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining rejection carries no Retry-After")
	}
}

// TestHTTPOutOfRangeWeights: an apsp body whose weights could overflow a
// path sum (2(n−1)·|w| ≥ Inf) is refused with a 400 naming the range error,
// instead of answering a reachable pair as unreachable.
func TestHTTPOutOfRangeWeights(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The path 0 → 1 → 2 with weights (Inf−1, 1).
	w := [][]int64{{0, cc.Inf - 1, cc.Inf}, {cc.Inf, 0, 1}, {cc.Inf, cc.Inf, 0}}
	resp, body := post(t, srv, "/v1/apsp", map[string]any{"tenant": "t", "a": w})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var envelope wireError
	if err := json.Unmarshal(body, &envelope); err != nil || !strings.Contains(envelope.Error, cc.ErrOutOfRange.Error()) {
		t.Fatalf("error envelope = %q (%v), want it to carry %q", envelope.Error, err, cc.ErrOutOfRange)
	}
}

func TestHTTPStats(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	a, b := testMat(8, 1), testMat(8, 2)
	if resp, body := post(t, srv, "/v1/matmul", map[string]any{"tenant": "t", "a": a, "b": b}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Draining bool                   `json:"draining"`
		Pool     PoolStats              `json:"pool"`
		Queues   []QueueStats           `json:"queues"`
		Tenants  map[string]TenantStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Draining {
		t.Fatal("stats report draining on a live server")
	}
	if doc.Pool.Misses != 1 {
		t.Fatalf("pool stats = %+v, want one session built", doc.Pool)
	}
	if len(doc.Queues) != 1 || doc.Queues[0].Op != OpMatMul || doc.Queues[0].N != 8 {
		t.Fatalf("queue stats = %+v", doc.Queues)
	}
	if doc.Tenants["t"].Completed != 1 {
		t.Fatalf("tenant stats = %+v", doc.Tenants)
	}
}

// TestHTTPDeadlines: deadline_ms bounds a request only when it is a
// positive duration a time.Duration can hold; a larger one (317 years
// here) means no deadline instead of wrapping into the past.
func TestHTTPDeadlines(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	path := make([][]int64, 8)
	for i := range path {
		path[i] = make([]int64, 8)
	}
	for i := 0; i < 7; i++ {
		path[i][i+1], path[i+1][i] = 1, 1
	}
	for _, c := range []struct {
		name string
		ms   int64
	}{
		{"one second", 1000},
		{"none", 0},
		{"negative: none", -5},
		{"317 years: beyond a time.Duration", 10_000_000_000_000},
		{"the largest time.Duration", maxDeadlineMs},
	} {
		resp, body := post(t, srv, "/v1/triangles", map[string]any{"tenant": "t", "a": path, "deadline_ms": c.ms})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s (deadline_ms %d): status %d: %s", c.name, c.ms, resp.StatusCode, body)
		}
	}
}

// writeResultReference is the writer writeResult replaced — json.Marshal
// and fmt once per row, one flush after the header — kept as the reference
// for the wire format.
func writeResultReference(w http.ResponseWriter, op Op, res *Result) {
	w.Header().Set("Content-Type", "application/json")
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	flusher, _ := w.(http.Flusher)
	fmt.Fprintf(w, `{"op":%q,"queue_wait_ms":%.3f,"service_ms":%.3f,"stats":%s`,
		op, float64(res.QueueWait.Microseconds())/1000, float64(res.Service.Microseconds())/1000, stats)
	if op == OpTriangles {
		fmt.Fprintf(w, `,"count":%d`, res.Count)
	}
	if res.Matrix != nil {
		fmt.Fprint(w, `,"result":[`)
		if flusher != nil {
			flusher.Flush()
		}
		for i, row := range res.Matrix {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprint(w, "\n")
			raw, err := json.Marshal(row)
			if err != nil {
				return // headers are gone; nothing better to do mid-stream
			}
			w.Write(raw)
			if flusher != nil && (i+1)%flushEvery == 0 {
				flusher.Flush()
			}
		}
		fmt.Fprint(w, "\n]")
	}
	fmt.Fprint(w, "}\n")
	if flusher != nil {
		flusher.Flush()
	}
}

// flushRecorder is a ResponseWriter that records the body length at every
// Flush.
type flushRecorder struct {
	bytes.Buffer
	header  http.Header
	flushes []int
}

func (r *flushRecorder) Header() http.Header {
	if r.header == nil {
		r.header = http.Header{}
	}
	return r.header
}
func (r *flushRecorder) WriteHeader(int) {}
func (r *flushRecorder) Flush()          { r.flushes = append(r.flushes, r.Len()) }

// TestWriteResultMatchesReference: the one-buffer writer puts the same
// bytes on the wire as the json.Marshal writer it replaced, and flushes at
// the same points — every flushEvery rows and at the end — except the
// reference's flush right after the header, which is gone on purpose.
func TestWriteResultMatchesReference(t *testing.T) {
	stats := cc.Stats{N: 64, PaddedFrom: 63, Rounds: 17, Words: 12345, Attempts: 1, Certified: true, Routing: "dense",
		Phases: []cc.PhaseStat{{Name: "spread", Rounds: 9, Words: 10000}, {Name: "gather \"q\" <&>", Rounds: 8, Words: 2345}}}
	mat := func(n int) [][]int64 {
		m := testMat(n, int64(n))
		for i := range m {
			m[i][(i*7)%n] = cc.Inf
			m[i][(i*3+1)%n] = -int64(i*1000 + 1)
		}
		m[0][0] = math.MinInt64
		return m
	}
	cases := []struct {
		name string
		op   Op
		res  Result
	}{
		{"triangles, nil matrix", OpTriangles, Result{Count: 123456789, Stats: stats, QueueWait: 1500 * time.Microsecond, Service: 42 * time.Microsecond}},
		{"empty result", OpMatMul, Result{Matrix: [][]int64{}, Stats: stats}},
		{"no matrix", OpMatMul, Result{Stats: stats}},
	}
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		cases = append(cases, struct {
			name string
			op   Op
			res  Result
		}{fmt.Sprintf("n=%d", n), OpDistanceProduct, Result{Matrix: mat(n), Stats: stats, QueueWait: time.Duration(n) * time.Millisecond, Service: 999 * time.Nanosecond}})
	}
	for _, c := range cases {
		ref, got := &flushRecorder{}, &flushRecorder{}
		writeResultReference(ref, c.op, &c.res)
		writeResult(got, c.op, &c.res)
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Errorf("%s: bytes differ from the reference writer\ngot  %.300q\nwant %.300q", c.name, got.Bytes(), ref.Bytes())
			continue
		}
		want := ref.flushes
		if c.res.Matrix != nil {
			want = want[1:] // the reference's header flush
		}
		if !slices.Equal(got.flushes, want) {
			t.Errorf("%s: flushes at body offsets %v, want %v (reference %v)", c.name, got.flushes, want, ref.flushes)
		}
		if !json.Valid(got.Bytes()) {
			t.Errorf("%s: body is not valid JSON", c.name)
		}
	}
}

// FuzzDecodeRequest drives the HTTP trust boundary: any body either fails
// to decode or yields a deadline that is absent or in the future, and a
// decoded request that validates builds the n×n instance its op runs on —
// both operands n×n for the products, the graph of A for the graph ops.
// The served range is narrowed to 2…8 so the committed corpus can sit on
// both sides of it.
func FuzzDecodeRequest(f *testing.F) {
	cfg := Config{MinSize: 2, MaxSize: 8}.withDefaults()
	f.Fuzz(func(t *testing.T, op string, body []byte) {
		before := time.Now()
		req, deadline, err := decodeRequest(Op(op), bytes.NewReader(body), "hdr")
		if err != nil {
			return
		}
		if !deadline.IsZero() && !deadline.After(before) {
			t.Fatalf("deadline %v is not after the decode began (%v)", deadline, before)
		}
		if req.validate(cfg) != nil {
			return
		}
		n := len(req.A)
		switch req.Op {
		case OpTriangles, OpSparseSquare:
			g := graphOf(req.A)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if g.N() != n || g.HasEdge(i, j) != (req.A[i][j] == 1) {
						t.Fatalf("graph of a validated %d×%d adjacency disagrees at (%d,%d)", n, n, i, j)
					}
				}
			}
		case OpAPSP:
			g := weightedOf(req.A)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					w, a := g.Weight(i, j), req.A[i][j]
					if g.N() != n || (i != j && w != a && !(cc.IsInf(w) && cc.IsInf(a))) {
						t.Fatalf("weighted graph of a validated %d×%d matrix disagrees at (%d,%d)", n, n, i, j)
					}
				}
			}
		default:
			if len(req.B) != n {
				t.Fatalf("validated product operands are %d and %d rows", n, len(req.B))
			}
			for i := range req.A {
				if len(req.A[i]) != n || len(req.B[i]) != n {
					t.Fatalf("validated product operand row %d is ragged", i)
				}
			}
		}
	})
}
