package algclique

import (
	"errors"
	"fmt"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// This file is the public surface of the fault plane: seeded chaos
// injection (WithFaultInjection), probabilistic result certification
// (WithCertification), and the retry loop that ties them together. See
// DESIGN.md "Fault plane" for the taxonomy and the certification math.

// FaultPlan is a seeded, deterministic fault schedule armed on one
// operation with WithFaultInjection. The zero value injects nothing; a
// plan must set Seed explicitly — the same plan injects the same faults on
// every run. See clique.FaultPlan for the knobs.
type FaultPlan = clique.FaultPlan

// FaultStats ledgers every fault injected into an operation; it is
// reported in Stats.Faults and inside FaultError.
type FaultStats = clique.FaultStats

// FaultError is the typed error surfaced when an operation was disrupted
// by injected faults and could not be recovered (or its result could not
// be trusted): a crashed node's send, a fault storm exhausting the retry
// budget, or a completed product that no certification vouched for.
type FaultError = clique.FaultError

// FaultKind classifies an injected fault (see the Fault… constants).
type FaultKind = clique.FaultKind

// Re-exported fault kinds.
const (
	FaultCorrupt   = clique.FaultCorrupt
	FaultDrop      = clique.FaultDrop
	FaultDuplicate = clique.FaultDuplicate
	FaultCrash     = clique.FaultCrash
	FaultStraggle  = clique.FaultStraggle
	FaultDisrupt   = clique.FaultDisrupt
)

// DefaultCertificationRetries is the retry budget an operation gets when
// certification is armed without an explicit WithCertificationRetries.
const DefaultCertificationRetries = 3

// WithFaultInjection arms a seeded fault plan on the operation: link
// deliveries are corrupted, dropped, or duplicated, a node can fail-stop,
// and flushes can straggle, all deterministically in the plan's seed. The
// operation either recovers to a bit-correct result (retries under a
// certification budget), or fails with a typed error — *FaultError,
// *CertificationError, or the engine's own error — never a hang and never
// a silently wrong answer: a product that completes while data faults
// fired is only returned when certification vouched for it.
//
// MatMulBroadcast rejects a plan: its broadcasts never flush, so no fault
// could fire. Disarmed operations (no plan) pay one nil check
// per send and flush.
func WithFaultInjection(plan FaultPlan) CallOption {
	return callOpt(func(c *config) { p := plan; c.fault = &p })
}

// WithCertification verifies every product the operation returns before
// returning it, and re-runs the product (fresh fault draws, fresh probe
// seed) when verification fails, up to the retry budget
// (DefaultCertificationRetries unless WithCertificationRetries says
// otherwise).
//
// k is the check's strength. Integer products use Freivalds' certificate:
// k probe vectors, one broadcast round each, false-accept probability at
// most 2⁻ᵏ. Boolean and min-plus products have no subtraction, so
// Freivalds does not apply; they use deterministic seed-derived
// spot-checks instead — every node re-derives k entries of its output row
// from first principles, and k = n audits every entry. k ≤ 0 disables
// certification.
//
// Only MatMul, MatMulBool and DistanceProduct certify.
// Every other operation has no certificate for its result yet and refuses
// with an error wrapping ErrNotCertifiable before it runs, rather than
// return an answer with Stats.Certified false.
func WithCertification(k int) CallOption {
	return callOpt(func(c *config) { c.certifyProbes = k })
}

// ErrNotCertifiable is wrapped by the error of an operation called under
// WithCertification that cannot vouch for its result.
var ErrNotCertifiable = errors.New("algclique: operation cannot certify its result")

// certifies reports whether the operation named op runs through runProduct,
// the one place a result is certified: the three dense products.
func certifies(op string) bool {
	return op == matMulSpec.op || op == matMulBoolSpec.op || op == distanceProductSpec.op
}

// WithCertificationRetries bounds how many times a product is re-run when
// certification fails or injected faults disrupt it (m = 0 disables
// retries; the first failure surfaces). Without certification the default
// budget is 0: an uncertified re-run could not be trusted any more than
// the first.
func WithCertificationRetries(m int) CallOption {
	return callOpt(func(c *config) { c.certifyRetries = m })
}

// CertificationError reports a product whose result kept failing
// certification after the retry budget was spent — either faults hit every
// attempt, or (with no faults armed) the engine computed a wrong product,
// which is a bug worth reporting.
type CertificationError struct {
	// Op is the operation whose result failed certification.
	Op string
	// Attempts is how many times the product ran.
	Attempts int
	// Probes is the certification strength that rejected it.
	Probes int
	// Injected ledgers the faults fired across all attempts.
	Injected FaultStats
}

// Error implements error.
func (e *CertificationError) Error() string {
	return fmt.Sprintf("algclique: %s failed certification after %d attempt(s) (%d probes, %d faults injected)",
		e.Op, e.Attempts, e.Probes, e.Injected.Fired())
}

// dataFaults counts the faults that can change delivered data — the ones
// that make an uncertified result untrustworthy. Straggles stretch rounds
// but never touch data.
func dataFaults(s FaultStats) int64 { return s.Corrupted + s.Dropped + s.Duplicated }

// certSeed derives the probe seed for one certification attempt: fresh
// per attempt, deterministic in the call seed.
func certSeed(seed uint64, attempt int) uint64 {
	return seed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15
}
