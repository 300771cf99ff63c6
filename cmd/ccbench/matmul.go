package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// The matmul experiment measures the simulator's multiply-and-message hot
// path — the substrate every algorithm in the library stands on — and
// maintains the BENCH_matmul.json trajectory file:
//
//   - amortised per-product cost of repeated session DistanceProduct /
//     MatMul calls (rounds, words, allocs/op, ns/op) at n ∈ {27, 64, 100},
//   - the same products on the direct (typed, analytically-charged) versus
//     wire (encoded) transport: identical rounds/words enforced at
//     measurement time, wall-clock for both, and the wire/direct speedup,
//   - Boolean products through the bit-packed transport versus the
//     unpacked reference, on the 3D engine and the naive gather.
//
// Regressions are gated on the deterministic, machine-independent metrics —
// round counts, word counts, allocs/op, the packed/unpacked round ratio —
// each within benchTolerance of the committed baseline, plus the
// direct-path speedup ratio against an absolute floor (same-process
// drift cancels, but the ratio's magnitude varies with the runner's
// memory system, so it gates on transportSpeedupFloor, not the baseline).
// Absolute wall-clock ns/op is recorded for the trajectory but not gated —
// CI hardware varies, and every wall-clock regression on this path shows up
// in allocs, message volume, or the speedup ratio first.

const (
	benchBaselinePath = "BENCH_matmul.json"
	benchTolerance    = 0.10 // fail on >10% regression
	benchWarmups      = 3
	benchOps          = 10

	// transportSpeedupFloor gates the direct-vs-wire ratio at n ≥ 64 as an
	// absolute bound rather than relative to the committed baseline: the
	// ratio is same-process-relative (drift cancels) but its magnitude is
	// set by the machine's memory system — the same commit measures the
	// distance product at 3.0–4.0× across healthy hardware — so a
	// baseline-relative gate fails on runner variance, not regressions.
	// The floor sits below the weakest healthy configuration (session
	// MatMul at n=64 measures ~1.4–1.5×): what it catches is the direct
	// plane collapsing toward wire parity, which any genuine regression
	// (reintroduced copies or encode/decode on the typed path) produces
	// at every size.
	transportSpeedupFloor = 1.15
)

// benchProductStats is one measured product configuration.
type benchProductStats struct {
	Rounds   int64   `json:"rounds"`
	Words    int64   `json:"words"`
	AllocsOp uint64  `json:"allocs_op"`
	NsOp     float64 `json:"ns_op"`
}

// benchTransportStats compares the direct (typed, analytically-charged)
// and wire (encoded) transports on one session product. Rounds and words
// must be bit-identical between the two — the measurement hard-fails
// otherwise — so only one copy of each is recorded. The speedup column is
// wire_ns_op / direct_ns_op over the recorded fields, each the minimum of
// interleaved timed repetitions: scheduler and GC noise is one-sided, so
// per-transport minima are the stablest wall-clock statistic available,
// and interleaving makes slow machine phases hit both transports alike —
// which is what lets this one hardware-relative metric hold a gate.
type benchTransportStats struct {
	Kind         string  `json:"kind"`
	N            int     `json:"n"`
	Rounds       int64   `json:"rounds"`
	Words        int64   `json:"words"`
	DirectNsOp   float64 `json:"direct_ns_op"`
	WireNsOp     float64 `json:"wire_ns_op"`
	DirectAllocs uint64  `json:"direct_allocs_op"`
	WireAllocs   uint64  `json:"wire_allocs_op"`
	Speedup      float64 `json:"speedup"`
}

// benchBoolStats compares packed and unpacked Boolean transports.
type benchBoolStats struct {
	Engine         string  `json:"engine"`
	N              int     `json:"n"`
	RoundsPacked   int64   `json:"rounds_packed"`
	RoundsUnpacked int64   `json:"rounds_unpacked"`
	WordsPacked    int64   `json:"words_packed"`
	WordsUnpacked  int64   `json:"words_unpacked"`
	RoundRatio     float64 `json:"round_ratio"`
	WordRatio      float64 `json:"word_ratio"`
}

// benchKernelStats compares a specialised local kernel against its scalar
// reference twin on identical operands in the same process: FastNsOp and
// RefNsOp are per-call minima over interleaved repetitions and Ratio is
// their quotient, so hardware cancels out exactly as in the transport
// speedup. Floor > 0 marks a gated entry — the ratio hard-fails below the
// floor regardless of any committed baseline (the ISSUE-level speedup
// claims: packed Boolean ≥4×, unrolled min-plus ≥1.3×, both at n ≥ 256).
// Floor = 0 entries are trajectory-only: the witness kernel's margin and
// the memory-bound n=512 min-plus ratio are recorded but too compressed
// by bandwidth effects to gate robustly.
type benchKernelStats struct {
	Kernel   string  `json:"kernel"`
	N        int     `json:"n"`
	FastNsOp float64 `json:"fast_ns_op"`
	RefNsOp  float64 `json:"ref_ns_op"`
	Ratio    float64 `json:"ratio"`
	Floor    float64 `json:"floor,omitempty"`
}

// benchSnapshot is one full measurement of the hot path.
type benchSnapshot struct {
	SessionDistanceProduct map[string]benchProductStats `json:"session_distance_product"`
	SessionMatMul          map[string]benchProductStats `json:"session_matmul"`
	Transport              []benchTransportStats        `json:"transport_direct_vs_wire"`
	Bool                   []benchBoolStats             `json:"bool_packed_vs_unpacked"`
	Kernels                []benchKernelStats           `json:"local_kernels"`
}

// benchFile is the committed trajectory: the pre-optimisation numbers
// (fixed at the commit that introduced the experiment) and the current
// baseline the gate compares against.
type benchFile struct {
	Experiment string         `json:"experiment"`
	Note       string         `json:"note"`
	Before     *benchSnapshot `json:"before,omitempty"`
	BeforeNote string         `json:"before_note,omitempty"`
	After      *benchSnapshot `json:"after"`
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// benchReps is the number of timed repetitions per configuration; the
// minimum is reported, which filters scheduler and GC noise well enough
// for the (relative) speedup gate to hold a 10% tolerance.
const benchReps = 5

// measureSession runs warmups, then benchReps timed loops of benchOps
// products on one session, and reports the amortised steady-state cost of
// the best repetition.
func measureSession(n int, mul func(s *cc.Clique, a, b [][]int64) (cc.Stats, error), opts ...cc.SessionOption) benchProductStats {
	a, b := randSquare(n, 71), randSquare(n, 72)
	runtime.GC() // level the collector between configurations
	s, err := cc.NewClique(n, opts...)
	check(err)
	defer s.Close()
	var last cc.Stats
	for i := 0; i < benchWarmups; i++ {
		last, err = mul(s, a, b)
		check(err)
	}
	best := benchProductStats{}
	for rep := 0; rep < benchReps; rep++ {
		m0, t0 := mallocCount(), time.Now()
		for i := 0; i < benchOps; i++ {
			last, err = mul(s, a, b)
			check(err)
		}
		dt, dm := time.Since(t0), mallocCount()-m0
		// Each metric keeps its own minimum across repetitions: wall-clock
		// and allocation noise are independent, so the rep that wins one
		// need not win the other.
		ns := float64(dt.Nanoseconds()) / benchOps
		allocs := dm / benchOps
		if rep == 0 || ns < best.NsOp {
			best.NsOp = ns
		}
		if rep == 0 || allocs < best.AllocsOp {
			best.AllocsOp = allocs
		}
	}
	best.Rounds, best.Words = last.Rounds, last.Words
	return best
}

// measureTransport runs the same session product on both transports —
// interleaved, so drift cancels — and reports the pair; rounds and words
// must agree exactly (the differential tests prove it, the bench refuses
// to record numbers that contradict it).
func measureTransport(kind string, n int, mul func(s *cc.Clique, a, b [][]int64) (cc.Stats, error)) benchTransportStats {
	a, b := randSquare(n, 71), randSquare(n, 72)
	runtime.GC()
	sd, err := cc.NewClique(n)
	check(err)
	defer sd.Close()
	sw, err := cc.NewClique(n, cc.WithWireTransport())
	check(err)
	defer sw.Close()
	var dst, wst cc.Stats
	for i := 0; i < benchWarmups; i++ {
		dst, err = mul(sd, a, b)
		check(err)
		wst, err = mul(sw, a, b)
		check(err)
	}
	if dst.Rounds != wst.Rounds || dst.Words != wst.Words {
		check(fmt.Errorf("matmul: %s n=%d: transports diverged: direct %d rounds / %d words, wire %d rounds / %d words",
			kind, n, dst.Rounds, dst.Words, wst.Rounds, wst.Words))
	}
	// Transport comparisons run a longer timed loop than the session
	// trajectory: the speedup ratio is gated, so its inputs get the extra
	// stability budget.
	const transportOps = 2 * benchOps
	time1 := func(s *cc.Clique) (ns float64, allocs uint64) {
		m0, t0 := mallocCount(), time.Now()
		for i := 0; i < transportOps; i++ {
			_, err := mul(s, a, b)
			check(err)
		}
		return float64(time.Since(t0).Nanoseconds()) / transportOps, (mallocCount() - m0) / transportOps
	}
	out := benchTransportStats{Kind: kind, N: n, Rounds: dst.Rounds, Words: dst.Words}
	for rep := 0; rep < benchReps; rep++ {
		dns, dallocs := time1(sd)
		wns, wallocs := time1(sw)
		if rep == 0 || dns < out.DirectNsOp {
			out.DirectNsOp = dns
		}
		if rep == 0 || wns < out.WireNsOp {
			out.WireNsOp = wns
		}
		if rep == 0 || dallocs < out.DirectAllocs {
			out.DirectAllocs = dallocs
		}
		if rep == 0 || wallocs < out.WireAllocs {
			out.WireAllocs = wallocs
		}
	}
	out.Speedup = out.WireNsOp / out.DirectNsOp
	return out
}

// measureBool runs the same Boolean product through the packed and
// unpacked transports on the chosen semiring engine.
func measureBool(engine string, n int) benchBoolStats {
	rng := rand.New(rand.NewPCG(73, uint64(n)))
	rows := make([][]bool, n)
	for i := range rows {
		rows[i] = make([]bool, n)
		for j := range rows[i] {
			rows[i][j] = rng.IntN(2) == 1
		}
	}
	s := &ccmm.RowMat[bool]{Rows: rows}
	br := ring.Bool{}
	run := func(codec ring.BulkCodec[bool]) (rounds, words int64, p *ccmm.RowMat[bool]) {
		net := clique.New(n)
		defer net.Close()
		var err error
		if engine == "naive-gather" {
			p, err = ccmm.NaiveGather[bool](net, nil, br, codec, s, s)
		} else {
			p, err = ccmm.Semiring3D[bool](net, nil, br, codec, s, s)
		}
		check(err)
		return net.Rounds(), net.Words(), p
	}
	ru, wu, pu := run(ring.AsBulk[bool](br))
	rp, wp, pp := run(ring.PackedBool{})
	for v := range pu.Rows {
		for j := range pu.Rows[v] {
			if pu.Rows[v][j] != pp.Rows[v][j] {
				check(fmt.Errorf("matmul: packed Boolean product differs from unpacked at (%d,%d), n=%d", v, j, n))
			}
		}
	}
	return benchBoolStats{
		Engine:         engine,
		N:              n,
		RoundsPacked:   rp,
		RoundsUnpacked: ru,
		WordsPacked:    wp,
		WordsUnpacked:  wu,
		RoundRatio:     float64(ru) / float64(rp),
		WordRatio:      float64(wu) / float64(wp),
	}
}

// measureKernel times one fast/reference kernel pair, interleaved with
// per-side minima like measureTransport.
func measureKernel(kernel string, n int, floor float64, fast, ref func()) benchKernelStats {
	runtime.GC()
	const kernelOps = 3
	time1 := func(f func()) float64 {
		t0 := time.Now()
		for i := 0; i < kernelOps; i++ {
			f()
		}
		return float64(time.Since(t0).Nanoseconds()) / kernelOps
	}
	fast() // warm pools and caches
	ref()
	out := benchKernelStats{Kernel: kernel, N: n, Floor: floor}
	for rep := 0; rep < benchReps; rep++ {
		fns := time1(fast)
		rns := time1(ref)
		if rep == 0 || fns < out.FastNsOp {
			out.FastNsOp = fns
		}
		if rep == 0 || rns < out.RefNsOp {
			out.RefNsOp = rns
		}
	}
	out.Ratio = out.RefNsOp / out.FastNsOp
	return out
}

// measureKernels measures the local kernel plane: each specialised kernel
// against its reference twin. Operand shapes follow the kernels' sweet
// spots — Boolean density 0.1 keeps the scalar reference off both of its
// short-circuits (row skips at low density, saturation exits at high), and
// min-plus entries mix ⅛ infinities into small non-negative weights, the
// distance-product steady state.
func measureKernels() []benchKernelStats {
	boolPair := func(n int) (fast, ref func()) {
		rng := rand.New(rand.NewPCG(74, uint64(n)))
		a, b := matrix.New[bool](n, n), matrix.New[bool](n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Float64() < 0.1)
				b.Set(i, j, rng.Float64() < 0.1)
			}
		}
		out := matrix.New[bool](n, n)
		return func() { matrix.MulBoolInto(out, a, b) },
			func() { matrix.MulBoolScalarInto(out, a, b) }
	}
	minPlusMat := func(n int, seed uint64) *matrix.Dense[int64] {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		m := matrix.New[int64](n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.IntN(8) == 0 {
					m.Set(i, j, ring.Inf)
				} else {
					m.Set(i, j, rng.Int64N(1000))
				}
			}
		}
		return m
	}
	minPlusPair := func(n int) (fast, ref func()) {
		a, b := minPlusMat(n, 75), minPlusMat(n, 76)
		out := matrix.New[int64](n, n)
		return func() { matrix.MulMinPlusInto(out, a, b) },
			func() { matrix.MulMinPlusRefInto(out, a, b) }
	}
	minPlusWPair := func(n int) (fast, ref func()) {
		rng := rand.New(rand.NewPCG(77, uint64(n)))
		mk := func() *matrix.Dense[ring.ValW] {
			m := matrix.New[ring.ValW](n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.IntN(8) == 0 {
						m.Set(i, j, ring.ValW{V: ring.Inf, W: ring.NoWitness})
					} else {
						m.Set(i, j, ring.ValW{V: rng.Int64N(1000), W: rng.Int64N(int64(n))})
					}
				}
			}
			return m
		}
		a, b := mk(), mk()
		out := matrix.New[ring.ValW](n, n)
		return func() { matrix.MulMinPlusWInto(out, a, b) },
			func() { matrix.MulMinPlusWRefInto(out, a, b) }
	}
	var out []benchKernelStats
	// Gated floors hold at n=256; n=512 rides along ungated (the Boolean
	// ratio only widens there, the min-plus ratio goes memory-bound).
	for _, cfg := range []struct {
		n     int
		floor float64
	}{{256, 4.0}, {512, 4.0}} {
		fast, ref := boolPair(cfg.n)
		out = append(out, measureKernel("bool-packed/scalar", cfg.n, cfg.floor, fast, ref))
	}
	for _, cfg := range []struct {
		n     int
		floor float64
	}{{256, 1.3}, {512, 0}} {
		fast, ref := minPlusPair(cfg.n)
		out = append(out, measureKernel("minplus-unrolled/ref", cfg.n, cfg.floor, fast, ref))
	}
	fast, ref := minPlusWPair(256)
	out = append(out, measureKernel("minplusw-inlined/ref", 256, 0, fast, ref))
	return out
}

func measureSnapshot() *benchSnapshot {
	snap := &benchSnapshot{
		SessionDistanceProduct: map[string]benchProductStats{},
		SessionMatMul:          map[string]benchProductStats{},
	}
	for _, n := range []int{27, 64, 100} {
		key := fmt.Sprintf("%d", n)
		snap.SessionDistanceProduct[key] = measureSession(n, func(s *cc.Clique, a, b [][]int64) (cc.Stats, error) {
			_, st, err := s.DistanceProduct(a, b)
			return st, err
		})
		snap.SessionMatMul[key] = measureSession(n, func(s *cc.Clique, a, b [][]int64) (cc.Stats, error) {
			_, st, err := s.MatMul(a, b)
			return st, err
		})
	}
	mm := func(s *cc.Clique, a, b [][]int64) (cc.Stats, error) {
		_, st, err := s.MatMul(a, b)
		return st, err
	}
	dp := func(s *cc.Clique, a, b [][]int64) (cc.Stats, error) {
		_, st, err := s.DistanceProduct(a, b)
		return st, err
	}
	for _, n := range []int{27, 64, 100} {
		snap.Transport = append(snap.Transport,
			measureTransport("matmul", n, mm),
			measureTransport("distance-product", n, dp))
	}
	snap.Bool = []benchBoolStats{
		measureBool("semiring-3d", 64),
		measureBool("semiring-3d", 512),
		measureBool("naive-gather", 512),
	}
	snap.Kernels = measureKernels()
	return snap
}

// gate compares a current snapshot against the committed baseline and
// returns every violated bound.
func gate(base, cur *benchSnapshot) []string {
	var fails []string
	worse := func(now, then float64) bool {
		return float64(now) > float64(then)*(1+benchTolerance)
	}
	checkProducts := func(kind string, base, cur map[string]benchProductStats) {
		for key, b := range base {
			c, ok := cur[key]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s n=%s: missing from current run", kind, key))
				continue
			}
			if worse(float64(c.Rounds), float64(b.Rounds)) {
				fails = append(fails, fmt.Sprintf("%s n=%s: rounds %d > baseline %d", kind, key, c.Rounds, b.Rounds))
			}
			if worse(float64(c.Words), float64(b.Words)) {
				fails = append(fails, fmt.Sprintf("%s n=%s: words %d > baseline %d", kind, key, c.Words, b.Words))
			}
			// Small absolute slack keeps one-off runtime allocations (pool
			// growth, map rehash) from tripping the relative bound.
			if float64(c.AllocsOp) > float64(b.AllocsOp)*(1+benchTolerance)+64 {
				fails = append(fails, fmt.Sprintf("%s n=%s: allocs/op %d > baseline %d", kind, key, c.AllocsOp, b.AllocsOp))
			}
		}
	}
	checkProducts("session-distance-product", base.SessionDistanceProduct, cur.SessionDistanceProduct)
	checkProducts("session-matmul", base.SessionMatMul, cur.SessionMatMul)
	baseTransport := map[string]benchTransportStats{}
	for _, b := range base.Transport {
		baseTransport[fmt.Sprintf("%s/%d", b.Kind, b.N)] = b
	}
	for _, c := range cur.Transport {
		b, ok := baseTransport[fmt.Sprintf("%s/%d", c.Kind, c.N)]
		if !ok {
			continue
		}
		if worse(float64(c.Rounds), float64(b.Rounds)) {
			fails = append(fails, fmt.Sprintf("transport %s n=%d: rounds %d > baseline %d", c.Kind, c.N, c.Rounds, b.Rounds))
		}
		if worse(float64(c.Words), float64(b.Words)) {
			fails = append(fails, fmt.Sprintf("transport %s n=%d: words %d > baseline %d", c.Kind, c.N, c.Words, b.Words))
		}
		if float64(c.DirectAllocs) > float64(b.DirectAllocs)*(1+benchTolerance)+64 {
			fails = append(fails, fmt.Sprintf("transport %s n=%d: direct allocs/op %d > baseline %d", c.Kind, c.N, c.DirectAllocs, b.DirectAllocs))
		}
		// The direct-path speedup ratio is the one wall-clock-derived gate.
		// Same-process interleaving cancels run-to-run drift, but the
		// ratio's *magnitude* still tracks the machine's memory system —
		// the same commit measures 3.0–3.3× on one box and 4.0× on
		// another — so comparing against the committed baseline fails CI
		// on hardware variance, not regressions. The gate is an absolute
		// floor instead: the direct plane must stay decisively faster than
		// wire encoding, and a collapse toward parity is a genuine
		// regression on any hardware. Sub-millisecond sizes are recorded
		// but not gated — their ratio is timer noise.
		if c.N >= 64 && c.Speedup < transportSpeedupFloor {
			fails = append(fails, fmt.Sprintf("transport %s n=%d: direct-path speedup %.2fx below the %.1fx floor",
				c.Kind, c.N, c.Speedup, transportSpeedupFloor))
		}
	}
	baseBool := map[string]benchBoolStats{}
	for _, b := range base.Bool {
		baseBool[fmt.Sprintf("%s/%d", b.Engine, b.N)] = b
	}
	for _, c := range cur.Bool {
		b, ok := baseBool[fmt.Sprintf("%s/%d", c.Engine, c.N)]
		if !ok {
			continue
		}
		if worse(float64(c.RoundsPacked), float64(b.RoundsPacked)) {
			fails = append(fails, fmt.Sprintf("bool %s n=%d: packed rounds %d > baseline %d",
				c.Engine, c.N, c.RoundsPacked, b.RoundsPacked))
		}
		if c.RoundRatio < b.RoundRatio*(1-benchTolerance) {
			fails = append(fails, fmt.Sprintf("bool %s n=%d: packed/unpacked round ratio %.1f < baseline %.1f",
				c.Engine, c.N, c.RoundRatio, b.RoundRatio))
		}
	}
	for _, c := range cur.Kernels {
		// Kernel ratios gate on their absolute floors, not the committed
		// baseline: both sides of each ratio run in the same process, so
		// the floor is hardware-independent, and the floors are the PR's
		// stated speedup claims — a drop below one is a kernel regression
		// no matter what the last snapshot said.
		if c.Floor > 0 && c.Ratio < c.Floor {
			fails = append(fails, fmt.Sprintf("kernel %s n=%d: speedup %.2fx below the %.1fx floor",
				c.Kernel, c.N, c.Ratio, c.Floor))
		}
	}
	return fails
}

// matmulBench is the `ccbench matmul` experiment entry point.
func matmulBench() {
	cur := measureSnapshot()

	var committed benchFile
	gated := false
	if raw, err := os.ReadFile(benchBaselinePath); err == nil {
		check(json.Unmarshal(raw, &committed))
		if committed.After != nil {
			gated = true
			if fails := gate(committed.After, cur); len(fails) > 0 {
				for _, f := range fails {
					fmt.Fprintln(os.Stderr, "   REGRESSION:", f)
				}
				check(fmt.Errorf("matmul: %d hot-path regression(s) versus %s", len(fails), benchBaselinePath))
			}
		}
	}

	out := benchFile{
		Experiment: "matmul-hotpath",
		Note: "amortised session products, direct-vs-wire transports, packed Boolean transport, and local kernel ratios; " +
			"gated on rounds/words/allocs, the packed round ratio, and absolute floors for the direct-path speedup " +
			"and per-kernel ratios (absolute ns_op recorded, not gated — hardware varies; every gated ratio is " +
			"same-process-relative and floor-gated, never baseline-relative)",
		Before:     committed.Before,
		BeforeNote: committed.BeforeNote,
		After:      cur,
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	check(err)
	raw = append(raw, '\n')
	check(os.WriteFile(benchBaselinePath, raw, 0o644))
	fmt.Printf("   wrote %s\n", benchBaselinePath)
	if gated {
		fmt.Printf("   no regression > %.0f%% versus committed baseline\n", benchTolerance*100)
	} else {
		fmt.Printf("   no committed baseline found at %s; snapshot printed only\n", benchBaselinePath)
	}
	for _, tr := range cur.Transport {
		fmt.Printf("   %s n=%d: direct %.2fms vs wire %.2fms (%.2fx), %d rounds / %d words on both\n",
			tr.Kind, tr.N, tr.DirectNsOp/1e6, tr.WireNsOp/1e6, tr.Speedup, tr.Rounds, tr.Words)
	}
	for _, b := range cur.Bool {
		fmt.Printf("   bool %s n=%d: %d → %d rounds (%.1fx), %d → %d words (%.1fx)\n",
			b.Engine, b.N, b.RoundsUnpacked, b.RoundsPacked, b.RoundRatio,
			b.WordsUnpacked, b.WordsPacked, b.WordRatio)
	}
	for _, k := range cur.Kernels {
		suffix := "trajectory only"
		if k.Floor > 0 {
			suffix = fmt.Sprintf("floor %.1fx", k.Floor)
		}
		fmt.Printf("   kernel %s n=%d: %.2fms vs %.2fms reference (%.2fx, %s)\n",
			k.Kernel, k.N, k.FastNsOp/1e6, k.RefNsOp/1e6, k.Ratio, suffix)
	}
}
