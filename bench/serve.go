package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/serve"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

// serveMixed drives the service plane in process: requests go through
// Server.Handler().ServeHTTP with a recorder, so JSON decoding, admission,
// batching, the session pool and JSON encoding are on the path and sockets
// are not. The load is an open loop — one pacing goroutine releases a
// request every 1/rate seconds whatever the server is doing — because the
// question the ROADMAP asks of this layer is a queueing one, and a closed
// loop of a few waiting clients builds no queue.
type serveMixed struct {
	slots []serveSlot // request i uses slots[i%len(slots)]
	genS  float64
	refS  float64
}

// The mix is served at every scale: the instances are small already.
var (
	serveSizes   = []int{16, 24, 32}
	serveTenants = []string{"acme", "globex", "initech", "umbrella", "wayne", "stark"}
)

// serveRate is the open loop's request rate per second.
const serveRate = 400

// serveSlot is one (size, op) of the traffic mix with pre-encoded body.
type serveSlot struct {
	key  string
	size int
	path string
	body []byte
	req  serve.Request // the same query for Server.Do
	lib  libOp         // the same query on a warm session, and below it
	// check verifies a decoded HTTP response (or a Do result in the same
	// form) against the reference.
	check func(matrix cc.Mat, count int64) error
}

// wireBody is the JSON body of POST /v1/{op}; the tenant travels in the
// X-Tenant header so one body serves every tenant.
type wireBody struct {
	A cc.Mat `json:"a"`
	B cc.Mat `json:"b,omitempty"`
}

// wireReply is the part of a query response the benchmark reads.
type wireReply struct {
	QueueWaitMs float64 `json:"queue_wait_ms"`
	ServiceMs   float64 `json:"service_ms"`
	Stats       struct {
		Rounds int64
		Words  int64
	} `json:"stats"`
	Count  int64  `json:"count"`
	Result cc.Mat `json:"result"`
	Error  string `json:"error"`
}

func newServeMixed(seed uint64) (*serveMixed, error) {
	w := &serveMixed{}
	t0 := time.Now()
	type inputs struct{ a, b, da, db, ba, bb, apsp, tri, sq cc.Mat }
	in := make(map[int]inputs)
	rng := newRNG(seed, 3)
	for _, n := range serveSizes {
		in[n] = inputs{
			a: randMat(rng, n, -100, 100), b: randMat(rng, n, -100, 100),
			da: randWeights(rng, n, 0.25, 32), db: randWeights(rng, n, 0.25, 32),
			ba: randMat(rng, n, 0, 2), bb: randMat(rng, n, 0, 2),
			apsp: randWeights(rng, n, 0.25, 32),
			tri:  randAdjacency(rng, n, 0.25),
			// The forced sparse engine wants Σ deg² < 2n²: at quarter
			// density n = 32 already fails it, so this op's graphs are drawn
			// at average degree 3, which every size passes with room.
			sq: randAdjacency(rng, n, 3/float64(n-1)),
		}
	}
	w.genS = time.Since(t0).Seconds()

	t1 := time.Now()
	for k := 0; k < 8*len(serveSizes); k++ {
		n := serveSizes[k%len(serveSizes)]
		x := in[n]
		var s serveSlot
		var err error
		switch k % 8 {
		case 0:
			s = productSlot(serve.OpMatMul, mulInt, n, x.a, x.b)
		case 1:
			s = productSlot(serve.OpMatMul, mulInt, n, x.b, x.a)
		case 2:
			s = productSlot(serve.OpMatMulBool, mulBool, n, x.ba, x.bb)
		case 3:
			s = productSlot(serve.OpDistanceProduct, mulMinPlus, n, x.da, x.db)
		case 4:
			s = productSlot(serve.OpDistanceProduct, mulMinPlus, n, x.db, x.da)
		case 5:
			g := weightedOf(x.apsp)
			s = serveSlot{req: serve.Request{Op: serve.OpAPSP, A: x.apsp}}
			s.lib, err = apspOp(fmt.Sprintf("apsp_%d", n), g)
			fw := refAPSP(x.apsp)
			s.check = func(m cc.Mat, _ int64) error { return diffRows(m, fw) }
		case 6:
			g := graphOf(x.tri)
			want := refTriangles(x.tri)
			s = serveSlot{req: serve.Request{Op: serve.OpTriangles, A: x.tri}}
			s.lib = countOp(fmt.Sprintf("triangles_%d", n), g, want, (*cc.Clique).CountTriangles, subgraph.CountTriangles)
			s.check = func(_ cc.Mat, c int64) error {
				if c != want {
					return fmt.Errorf("count %d, want %d", c, want)
				}
				return nil
			}
		case 7:
			want := refProduct(mulInt, x.sq, x.sq)
			s = serveSlot{req: serve.Request{Op: serve.OpSparseSquare, A: x.sq}}
			s.lib = sparseSquareOp(fmt.Sprintf("sparse-square_%d", n), x.sq)
			s.check = func(m cc.Mat, _ int64) error { return diffRows(m, want) }
		}
		if err != nil {
			return nil, fmt.Errorf("serve_mixed: references: %w", err)
		}
		s.size, s.key, s.path = n, s.lib.key, "/v1/"+string(s.req.Op)
		if s.body, err = json.Marshal(wireBody{A: s.req.A, B: s.req.B}); err != nil {
			return nil, err
		}
		w.slots = append(w.slots, s)
	}
	w.refS = time.Since(t1).Seconds()
	return w, nil
}

func (w *serveMixed) inputTimes() (genS, refS float64) { return w.genS, w.refS }

func productSlot(op serve.Op, kind productKind, n int, a, b cc.Mat) serveSlot {
	want := refProduct(kind, a, b)
	return serveSlot{
		req:   serve.Request{Op: op, A: a, B: b},
		lib:   productOp(fmt.Sprintf("%s_%d", op, n), kind, a, b, 0),
		check: func(m cc.Mat, _ int64) error { return diffRows(m, want) },
	}
}

// refAPSP is Floyd–Warshall on a weight matrix (Inf = no edge, zero
// diagonal), written out here so the served answer has a reference that
// shares nothing with the repository.
func refAPSP(w cc.Mat) cc.Mat {
	n := len(w)
	d := make(cc.Mat, n)
	for i := range d {
		d[i] = append([]int64(nil), w[i]...)
		d[i][i] = 0
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k] < cc.Inf && d[k][j] < cc.Inf && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

// refTriangles counts the triangles of a symmetric adjacency matrix.
func refTriangles(a cc.Mat) int64 {
	var c int64
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			for k := j + 1; k < len(a); k++ {
				if a[i][j] != 0 && a[j][k] != 0 && a[i][k] != 0 {
					c++
				}
			}
		}
	}
	return c
}

// shot is one request of the open loop.
type shot struct {
	due  time.Time
	late time.Duration // how long after its due time the generator released it
	done time.Time
	code int
	body []byte
}

// fire sends one query through the handler.
func fire(h http.Handler, s *serveSlot, tenant string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, s.path, bytes.NewReader(s.body))
	req.Header.Set("X-Tenant", tenant)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	// Keep an exact-size copy: the recorder's buffer grew by doubling, and
	// holding thousands of half-empty buffers until the window closes would
	// make the process's peak RSS a property of the harness.
	return rec.Code, bytes.Clone(rec.Body.Bytes())
}

func (w *serveMixed) slot(i int) (*serveSlot, string) {
	return &w.slots[i%len(w.slots)], serveTenants[(i/len(w.slots))%len(serveTenants)]
}

// requestsFor is how many requests the open loop sends in the given time:
// whole cycles of the mix, so that per-request counts repeat exactly.
func (w *serveMixed) requestsFor(seconds float64) int {
	cycles := int(serveRate*seconds) / len(w.slots)
	return max(cycles, 1) * len(w.slots)
}

// openLoop releases n requests at the workload's rate from one pacing
// goroutine; each request runs on its own goroutine and is timed from the
// instant it was due, not from when it was released.
func (w *serveMixed) openLoop(h http.Handler, n int) []shot {
	shots := make([]shot, n)
	interval := time.Second / serveRate
	start := time.Now().Add(interval)
	var wg sync.WaitGroup
	for i := range shots {
		sh := &shots[i]
		sh.due = start.Add(time.Duration(i) * interval)
		if d := time.Until(sh.due); d > 0 {
			time.Sleep(d)
		}
		sh.late = max(time.Since(sh.due), 0)
		s, tenant := w.slot(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.code, sh.body = fire(h, s, tenant)
			sh.done = time.Now()
		}()
	}
	wg.Wait()
	return shots
}

// decode parses and verifies one response; a refusal, an error or a wrong
// answer is a failure.
func (s *serveSlot) decode(code int, body []byte) (*wireReply, error) {
	var r wireReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("%s: status %d, undecodable body: %w", s.key, code, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", s.key, code, r.Error)
	}
	if err := s.check(r.Result, r.Count); err != nil {
		return nil, fmt.Errorf("%s: %w", s.key, err)
	}
	return &r, nil
}

// setUp starts a server and makes one verified cold request per slot.
func (w *serveMixed) setUp() (*serve.Server, time.Duration, error) {
	t0 := time.Now()
	srv := serve.New(serve.DefaultConfig())
	h := srv.Handler()
	setup := time.Since(t0)
	for i := range w.slots {
		s, tenant := w.slot(i)
		t := time.Now()
		code, body := fire(h, s, tenant)
		setup += time.Since(t)
		if _, err := s.decode(code, body); err != nil {
			shutdown(srv)
			return nil, 0, fmt.Errorf("serve_mixed: cold %w", err)
		}
	}
	return srv, setup, nil
}

func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A drain that outlives the timeout only leaves idle goroutines behind
	// in a process that is about to exit.
	_ = srv.Shutdown(ctx)
}

// measure is the untraced run.
func (w *serveMixed) measure(cfg runConfig) (*result, error) {
	res := newResult()
	var srv *serve.Server
	var setups []float64
	for k := 0; k < max(cfg.scale.setupReps, 1); k++ {
		if srv != nil {
			shutdown(srv)
		}
		settle()
		var d time.Duration
		var err error
		if srv, d, err = w.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { shutdown(srv) }()

	n := w.requestsFor(cfg.seconds)
	settle()
	win := window{attempted: n, from: readUsage()}
	shots := w.openLoop(srv.Handler(), n)
	win.to = readUsage()

	// Responses were kept; they are decoded and checked after the window.
	var late time.Duration
	for i := range shots {
		sh := &shots[i]
		late = max(late, sh.late)
		s, _ := w.slot(i)
		r, err := s.decode(sh.code, sh.body)
		if err != nil {
			if win.failed == 0 {
				res.notef("FAILED: request %d: %v", i, err)
			}
			win.failed++
			continue
		}
		win.rounds += r.Stats.Rounds
		win.words += r.Stats.Words
		win.latencies = append(win.latencies, ms(sh.done.Sub(sh.due)))
	}
	if win.failed == n {
		return res, fmt.Errorf("serve_mixed: no request succeeded")
	}
	res.Correct = win.failed == 0
	win.endToEnd(res, median(setups))
	res.notef("serve_mixed seed %d: %d requests at %.0f req/s, open loop, generator at most %.3f ms late; %d set-ups; inputs %.3f s, references %.3f s",
		cfg.seed, n, float64(serveRate), ms(late), len(setups), w.genS, w.refS)
	return res, nil
}

// trace measures the serve layer's metrics in the given time slice: half
// of it an open-loop run that reads the server's own queue and service
// times, half a closed-loop ladder that enters each sampled query at the
// handler, at Server.Do, on a warm session and below it.
func (w *serveMixed) trace(seconds float64, baseline bool, rec *recorder, out map[string]float64, res *result) (overheadPct float64, err error) {
	srv, _, err := w.setUp()
	if err != nil {
		return 0, err
	}
	defer shutdown(srv)
	h := srv.Handler()

	// Open loop: the queueing numbers.
	pool0 := srv.Pool()
	n := w.requestsFor(seconds / 2)
	shots := w.openLoop(h, n)
	pool1 := srv.Pool()
	var lat, qwait, service []float64
	var late time.Duration
	rejected, completed := 0, 0
	for i := range shots {
		sh := &shots[i]
		res.Attempted++
		late = max(late, sh.late)
		s, _ := w.slot(i)
		if sh.code == http.StatusTooManyRequests {
			rejected++
		}
		r, err := s.decode(sh.code, sh.body)
		if err != nil {
			return 0, fmt.Errorf("serve_mixed: open loop: %w", err)
		}
		completed++
		lat = append(lat, ms(sh.done.Sub(sh.due)))
		qwait = append(qwait, r.QueueWaitMs)
		service = append(service, r.ServiceMs)
		id := rec.newOp()
		top := rec.add(id, 0, s.key, "serve", "http_open_loop", sh.due, sh.done)
		served := sh.done.Add(-time.Duration(r.ServiceMs * float64(time.Millisecond)))
		rec.add(id, top, s.key, "serve", "queue_wait", served.Add(-time.Duration(r.QueueWaitMs*float64(time.Millisecond))), served)
		rec.add(id, top, s.key, "serve", "service", served, sh.done)
	}
	out["serve.queue_wait_ms_p50"] = percentile(qwait, 0.50)
	out["serve.queue_wait_ms_p90"] = percentile(qwait, 0.90)
	out["serve.service_ms_p50"] = percentile(service, 0.50)
	out["serve.latency_ms_p99"] = percentile(lat, 0.99)
	out["serve.gen_late_ms_max"] = ms(late)
	out["serve.rejected_share"] = float64(rejected) / float64(n)
	gets := (pool1.Hits + pool1.Misses) - (pool0.Hits + pool0.Misses)
	out["serve.batch_size_mean"] = float64(completed) / float64(max(gets, 1))
	out["serve.pool_hit_rate"] = float64(pool1.Hits-pool0.Hits) / float64(max(gets, 1))

	// Closed loop: the ladder. Warm one bench-owned session per size.
	sessions := make(map[int]*cc.Clique)
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	for i := range w.slots {
		s := &w.slots[i]
		if sessions[s.size] == nil {
			if sessions[s.size], err = cc.NewClique(s.size); err != nil {
				return 0, err
			}
		}
		if _, err := s.lib.call(sessions[s.size]); err != nil {
			return 0, fmt.Errorf("serve_mixed: warm %s: %w", s.key, err)
		}
		if err := s.lib.verify(true); err != nil {
			return 0, fmt.Errorf("serve_mixed: warm %s: %w", s.key, err)
		}
	}
	rg := &rigs{}
	defer rg.close()
	seconds /= 2
	plain := samples{}
	if baseline {
		if err := w.ladder(h, srv, sessions, rg, seconds/4, false, nil, plain, res); err != nil {
			return 0, err
		}
		seconds -= seconds / 4
	}
	sm := samples{}
	if err := w.ladder(h, srv, sessions, rg, seconds, true, rec, sm, res); err != nil {
		return 0, err
	}
	sm.medians(out)
	if baseline {
		with, without := median(sm["serve.ms_p50.http"]), median(plain["serve.ms_p50.http"])
		overheadPct = 100 * (with - without) / without
	}
	return overheadPct, nil
}

// ladder replays the mix one query at a time for about the given time.
func (w *serveMixed) ladder(h http.Handler, srv *serve.Server, sessions map[int]*cc.Clique, rg *rigs,
	seconds float64, full bool, rec *recorder, sm samples, res *result) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < len(w.slots) || time.Now().Before(deadline); i++ {
		s, tenant := w.slot(i)
		id := rec.newOp()
		res.Attempted++

		var code int
		var body []byte
		httpSpan, dHTTP, _ := rec.timed(id, 0, s.key, "serve", "http", func() error {
			code, body = fire(h, s, tenant)
			return nil
		})
		if _, err := s.decode(code, body); err != nil {
			return fmt.Errorf("serve_mixed: ladder: %w", err)
		}
		sm.add("serve.ms_p50.http", ms(dHTTP))
		if !full {
			continue
		}

		req := s.req
		req.Tenant = tenant
		var r serve.Result
		t0 := time.Now()
		doSpan, dDo, _ := rec.timed(id, httpSpan, s.key, "serve", "do", func() error {
			r = srv.Do(context.Background(), req)
			return nil
		})
		if r.Err == nil {
			r.Err = s.check(r.Matrix, r.Count)
		}
		if r.Err != nil {
			return fmt.Errorf("serve_mixed: ladder: Do %s: %w", s.key, r.Err)
		}
		rec.add(id, doSpan, s.key, "serve", "queue_wait", t0, t0.Add(r.QueueWait))
		rec.add(id, doSpan, s.key, "serve", "service", t0.Add(r.QueueWait), t0.Add(r.QueueWait+r.Service))
		sm.add("serve.ms_p50.do", ms(dDo))
		sm.add("serve.self_ms_p50.http", ms(dHTTP-dDo))

		var st cc.Stats
		sessSpan, dSess, err := rec.timed(id, doSpan, s.key, "session", s.key, func() (err error) {
			st, err = s.lib.call(sessions[s.size])
			return err
		})
		if err == nil {
			err = s.lib.verify(false)
		}
		if err != nil {
			return fmt.Errorf("serve_mixed: ladder: session %s: %w", s.key, err)
		}
		sessions[s.size].ResetStats()
		sm.add("serve.self_ms_p50.service", ms(r.Service-dSess))

		x := &belowCtx{rigs: rg, n: st.N, rounds: st.Rounds,
			span: func(layer, subject string, f func() error) error {
				_, _, err := rec.timed(id, sessSpan, s.key, layer, subject, f)
				return err
			}}
		if err := s.lib.below(x); err != nil {
			return fmt.Errorf("serve_mixed: ladder: below %s: %w", s.key, err)
		}
	}
	return nil
}
