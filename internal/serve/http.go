package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// wireRequest is the JSON body of a query: POST /v1/{op}. The tenant may
// come from the body or the X-Tenant header (the body wins). DeadlineMs,
// when positive, bounds the request end to end — queue wait included —
// and expired requests are answered without ever reaching a session; one
// beyond maxDeadlineMs is no bound at all.
type wireRequest struct {
	Tenant     string    `json:"tenant"`
	A          [][]int64 `json:"a"`
	B          [][]int64 `json:"b,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
	DeadlineMs int64     `json:"deadline_ms,omitempty"`
}

// wireError is the JSON error envelope.
type wireError struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds a request body: a 2048² dense int64 matrix in JSON
// stays well under it, and it stops an abusive tenant from buffering
// gigabytes into the decoder.
const maxBodyBytes = 1 << 28

// Handler returns the server's HTTP API:
//
//	POST /v1/{op}   run a query (op ∈ matmul, matmul-bool,
//	                distance-product, apsp, triangles, sparse-square)
//	GET  /stats     pool, queue, and per-tenant ledger snapshot
//	GET  /healthz   200 while serving, 503 while draining
//
// Query responses stream: the stats header fields are written first and
// the result matrix follows, flushed every flushEvery rows, so a large
// product starts arriving while later rows are still being encoded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{op}", s.handleQuery)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	op := Op(r.PathValue("op"))
	req, deadline, err := decodeRequest(op, http.MaxBytesReader(w, r.Body, maxBodyBytes), r.Header.Get("X-Tenant"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	res := s.Do(ctx, req)
	if res.Err != nil {
		status, retry := statusOf(res.Err)
		if retry > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(retry.Seconds()))))
		}
		writeError(w, status, res.Err)
		return
	}
	writeResult(w, op, &res)
}

// maxDeadlineMs is the largest deadline_ms a time.Duration holds (about
// 292 years); a larger one would wrap negative.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// decodeRequest is the HTTP trust boundary: it decodes a query body into
// the Request for op — the body's tenant, else headerTenant — and its
// deadline, the zero time for none. A positive deadline_ms counts from
// the end of the decode; one too large for a time.Duration means no
// deadline rather than one that wrapped into the past. Validation is the
// Server's, on every path in.
func decodeRequest(op Op, body io.Reader, headerTenant string) (Request, time.Time, error) {
	var wr wireRequest
	if err := json.NewDecoder(body).Decode(&wr); err != nil {
		return Request{}, time.Time{}, fmt.Errorf("serve: bad request body: %w", err)
	}
	tenant := wr.Tenant
	if tenant == "" {
		tenant = headerTenant
	}
	var deadline time.Time
	if wr.DeadlineMs > 0 && wr.DeadlineMs <= maxDeadlineMs {
		deadline = time.Now().Add(time.Duration(wr.DeadlineMs) * time.Millisecond)
	}
	return Request{Tenant: tenant, Op: op, A: wr.A, B: wr.B, Seed: wr.Seed}, deadline, nil
}

// statusOf maps a service error to its HTTP status and, for backpressure,
// the Retry-After hint.
func statusOf(err error) (status int, retry time.Duration) {
	var overload *OverloadError
	switch {
	case errors.As(err, &overload):
		return http.StatusTooManyRequests, overload.RetryAfter
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, time.Second
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, 0
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style
		// semantics map closest onto 504 here.
		return http.StatusGatewayTimeout, 0
	default:
		return http.StatusBadRequest, 0
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireError{Error: err.Error()})
}

// flushEvery is how many result rows are written between flushes when
// streaming a matrix.
const flushEvery = 64

// writeResult streams one successful result from one buffer. The scalar
// fields (stats, timings, count) come first and the matrix rows — the
// O(n²) part — follow; the buffer is written and flushed every flushEvery
// rows and at the end, so a large product starts arriving while later
// rows are still being encoded and a small one is a single write.
func writeResult(w http.ResponseWriter, op Op, res *Result) {
	w.Header().Set("Content-Type", "application/json")
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	n := len(res.Matrix) // served results are n×n
	buf := make([]byte, 0, 128+len(stats)+min(n, flushEvery)*(4+8*n))
	buf = append(buf, `{"op":`...)
	buf = strconv.AppendQuote(buf, string(op))
	buf = append(buf, `,"queue_wait_ms":`...)
	buf = strconv.AppendFloat(buf, float64(res.QueueWait.Microseconds())/1000, 'f', 3, 64)
	buf = append(buf, `,"service_ms":`...)
	buf = strconv.AppendFloat(buf, float64(res.Service.Microseconds())/1000, 'f', 3, 64)
	buf = append(buf, `,"stats":`...)
	buf = append(buf, stats...)
	if op == OpTriangles {
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendInt(buf, res.Count, 10)
	}
	if res.Matrix != nil {
		buf = append(buf, `,"result":[`...)
		for i, row := range res.Matrix {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '\n', '[')
			for j, v := range row {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, v, 10)
			}
			buf = append(buf, ']')
			if (i+1)%flushEvery == 0 {
				buf = flushBuf(w, buf)
			}
		}
		buf = append(buf, "\n]"...)
	}
	flushBuf(w, append(buf, "}\n"...))
}

// flushBuf writes buf and flushes it to the client, returning buf emptied
// for reuse.
func flushBuf(w http.ResponseWriter, buf []byte) []byte {
	w.Write(buf)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return buf[:0]
}

// serverStats is the /stats document.
type serverStats struct {
	Draining bool                   `json:"draining"`
	Pool     PoolStats              `json:"pool"`
	Queues   []QueueStats           `json:"queues"`
	Tenants  map[string]TenantStats `json:"tenants"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(serverStats{
		Draining: s.Draining(),
		Pool:     s.Pool(),
		Queues:   s.Queues(),
		Tenants:  s.Tenants(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
