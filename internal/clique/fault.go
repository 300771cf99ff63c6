package clique

import "fmt"

// This file is the simulator's fault plane: a deterministic adversary that
// perturbs link deliveries at Flush. Like the round limit, it is *armed* on
// a network per run (SetFaultInjector) and read at the synchronisation
// points the model already has — Send, Flush, charge — so a disarmed
// network pays one nil check per call and nothing else.
//
// Every decision the injector makes is a pure function of
// (plan seed, attempt, flush index, link): no global rand, no clock. The
// same plan on the same algorithm therefore injects the same faults on
// every run, which is what makes chaos campaigns replayable and lets a
// recovery layer re-run an operation under fresh draws by advancing the
// attempt counter instead of re-seeding.

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// FaultCorrupt flips bits in one delivered word (wire plane) or one
	// delivered payload element (direct plane).
	FaultCorrupt FaultKind = iota
	// FaultDrop withholds one link's delivery at a Flush; the words were
	// sent (and charged), the receiver just never sees them.
	FaultDrop
	// FaultDuplicate delivers one link's words twice in the same Flush.
	// Payloads are never duplicated: their readers index the entries they
	// expect, so a repeat could not reach them.
	FaultDuplicate
	// FaultCrash fail-stops a node once the network reaches the plan's
	// round: its subsequent sends panic with *FaultError and its pending
	// deliveries are withheld.
	FaultCrash
	// FaultStraggle stretches a Flush by extra rounds (a slow node holding
	// up the synchronous barrier); data is unaffected.
	FaultStraggle
	// FaultDisrupt is not injected directly: it is the kind recovery
	// layers report when injected faults broke a run in an unstructured
	// way (a decode panic on garbled words) or a completed run cannot be
	// trusted (faults fired and no certification vouched for the result).
	FaultDisrupt
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCorrupt:
		return "corrupt"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultCrash:
		return "crash"
	case FaultStraggle:
		return "straggle"
	case FaultDisrupt:
		return "disrupt"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultPlan is a seeded, schedule-keyed fault schedule. The zero value
// injects nothing; every probability is per link delivery per Flush. Plans
// must be explicitly seeded — determinism is the contract (cliquevet's
// detorder check enforces an explicit Seed on plan literals in the engine
// packages), and two runs of the same plan inject identical faults.
type FaultPlan struct {
	// Seed keys every draw the injector makes.
	Seed uint64
	// CorruptProb flips bits in one delivered word or payload element on
	// the link, per delivery.
	CorruptProb float64
	// DropProb withholds the link's entire delivery, per delivery.
	DropProb float64
	// DupProb delivers the link's words twice, per delivery that carries
	// words; payload-only deliveries are never duplicated.
	DupProb float64
	// StraggleProb stretches a Flush by StraggleSkew extra rounds, per
	// Flush.
	StraggleProb float64
	// StraggleSkew is the extra rounds per straggle event (default 1).
	StraggleSkew int64
	// CrashAtRound fail-stops CrashNode once the network's round count
	// reaches it (0 disables).
	CrashAtRound int64
	// CrashNode is the node CrashAtRound stops.
	CrashNode int
	// PanicAtFlush raises a plain, untyped panic at the given 1-based
	// flush index (0 disables). It simulates a buggy operation — not a
	// modelled fault — for exercising crash-safety in layers that must
	// survive a panicking run (the serve plane's poisoned sessions).
	PanicAtFlush int64
	// MaxFaults caps the number of data faults (corrupt + drop +
	// duplicate) injected per run, so low-probability storms stay bounded
	// (0 = unlimited). Crashes, straggles, and panics are not counted.
	MaxFaults int64
}

// FaultStats ledgers every fault an injector fired.
type FaultStats struct {
	// Corrupted, Dropped, Duplicated count perturbed link deliveries
	// (Dropped includes deliveries withheld because their source crashed;
	// Duplicated counts only deliveries that carried words).
	Corrupted, Dropped, Duplicated int64
	// Straggles counts stretched flushes; SkewRounds the total extra
	// rounds they charged.
	Straggles, SkewRounds int64
	// Crashes counts fail-stopped nodes (0 or 1 per plan).
	Crashes int64
	// Panics counts injected untyped panics (PanicAtFlush).
	Panics int64
}

// Fired is the total number of injected faults of every kind.
func (s FaultStats) Fired() int64 {
	return s.Corrupted + s.Dropped + s.Duplicated + s.Straggles + s.Crashes + s.Panics
}

// FaultError is the typed surface of an unrecovered injected fault: raised
// (via panic) when a crashed node tries to send, and returned by recovery
// layers when a faulted run cannot be retried or trusted. Entry points
// convert the panic form into an error like the other controlled aborts
// (see AsAbort).
type FaultError struct {
	// Kind is the fault that surfaced.
	Kind FaultKind
	// Node is the crashed node for FaultCrash, else -1.
	Node int
	// Round is the simulated round at which the fault surfaced.
	Round int64
	// Injected snapshots the injector's ledger at the point of failure.
	Injected FaultStats
}

// Error implements error.
func (e *FaultError) Error() string {
	if e.Kind == FaultCrash {
		return fmt.Sprintf("clique: node %d crashed at round %d (injected fault)", e.Node, e.Round)
	}
	return fmt.Sprintf("clique: injected %v fault unrecovered after %d rounds (%d faults fired)",
		e.Kind, e.Round, e.Injected.Fired())
}

// AsAbort reports whether a recovered panic value is one of the simulator's
// controlled aborts — round limit, cancellation, or injected fault — and
// returns it as an error. Engine entry points use it to convert the abort
// panic a charge raised mid-schedule into a typed error return; anything
// else (a genuine bug) should be re-panicked.
func AsAbort(r any) (error, bool) {
	switch e := r.(type) {
	case *RoundLimitError:
		return e, true
	case *CanceledError:
		return e, true
	case *FaultError:
		return e, true
	}
	return nil, false
}

// PayloadCorrupter mutates one element of a direct-plane payload in place,
// using h as the (already mixed) source of which element and which bits to
// perturb. It reports whether it recognised the payload's type; the
// injector tries its corrupters in order and counts the fault only when one
// applied. Corrupters live with the code that knows the payload types (the
// engine layer registers its slice types), keeping the simulator agnostic.
type PayloadCorrupter func(p Payload, h uint64) bool

// FaultInjector executes a FaultPlan against a network. Arm it with
// Network.SetFaultInjector; it stays armed across Reset (like the round
// limit) until disarmed with SetFaultInjector(nil). An injector is not safe
// for concurrent use beyond the network's own phase discipline: faults fire
// at Flush (single-threaded), and the crash check in Send reads state only
// written between send phases.
type FaultInjector struct {
	plan       FaultPlan
	corrupters []PayloadCorrupter
	attempt    uint64
	stats      FaultStats
	crashed    bool
	panicked   bool
}

// NewFaultInjector builds an injector for plan with the given payload
// corrupters (wire words need none).
func NewFaultInjector(plan FaultPlan, corrupters ...PayloadCorrupter) *FaultInjector {
	if plan.StraggleProb > 0 && plan.StraggleSkew <= 0 {
		plan.StraggleSkew = 1
	}
	return &FaultInjector{plan: plan, corrupters: corrupters}
}

// Plan returns the injector's plan.
func (fi *FaultInjector) Plan() FaultPlan { return fi.plan }

// Stats returns the ledger of every fault fired so far (cumulative across
// attempts).
func (fi *FaultInjector) Stats() FaultStats { return fi.stats }

// Advance moves the injector to its next attempt: all subsequent draws are
// re-keyed, so a retried operation sees independent faults from the same
// seed. The ledger is kept (it is cumulative); the crash and panic flags
// persist too — a fail-stopped node stays stopped across retries.
func (fi *FaultInjector) Advance() { fi.attempt++ }

// Crashed reports whether the plan's crash has fired; once it has, retrying
// on the same network cannot succeed (the node stays fail-stopped).
func (fi *FaultInjector) Crashed() bool { return fi.crashed }

// PanicInjected reports whether PanicAtFlush has fired. Recovery layers use
// it to tell a deliberately injected untyped panic (which must propagate,
// to exercise crash-safety above) from a panic that is collateral damage of
// data faults (which they convert to *FaultError).
func (fi *FaultInjector) PanicInjected() bool { return fi.panicked }

// splitmix64 is the finaliser of Vigna's SplitMix64 generator: a cheap,
// high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Draw salts, one per decision kind, so the decisions on one link in one
// flush are independent.
const (
	saltDrop = iota + 1
	saltDup
	saltCorrupt
	saltCorruptPick
	saltStraggle
)

// draw returns the mixed 64-bit hash keying one decision.
func (fi *FaultInjector) draw(flush uint64, src, dst int, salt uint64) uint64 {
	h := splitmix64(fi.plan.Seed ^ (fi.attempt * 0x9e3779b97f4a7c15))
	h = splitmix64(h ^ flush)
	return splitmix64(h ^ (uint64(src)<<20 | uint64(dst)<<2 | salt))
}

// roll returns true with probability p, deterministically in the draw key.
func (fi *FaultInjector) roll(flush uint64, src, dst int, salt uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := fi.draw(flush, src, dst, salt)
	return float64(h>>11)*(1.0/(1<<53)) < p
}

// dataCapped reports whether the data-fault budget is exhausted.
func (fi *FaultInjector) dataCapped() bool {
	m := fi.plan.MaxFaults
	return m > 0 && fi.stats.Corrupted+fi.stats.Dropped+fi.stats.Duplicated >= m
}

// linkActive reports whether the per-link delivery sweep can have any
// effect right now: a crashed source must still have its in-flight traffic
// withheld, and data faults need both a nonzero probability and budget
// left. Flush evaluates this once per flush, so a plan that cannot touch
// deliveries (inert probabilities, or MaxFaults already spent) skips the
// O(links) sweep entirely — draws are keyed by (flush, link), not
// sequential, so skipping draws that cannot fire leaves every other draw
// unchanged.
func (fi *FaultInjector) linkActive() bool {
	if fi.crashed {
		return true
	}
	if fi.dataCapped() {
		return false
	}
	p := &fi.plan
	return p.CorruptProb > 0 || p.DropProb > 0 || p.DupProb > 0
}

// noteRounds arms the crash once the network's round count reaches the
// plan's trigger. Called from charge, after the round counter advanced.
func (fi *FaultInjector) noteRounds(rounds int64) {
	if !fi.crashed && fi.plan.CrashAtRound > 0 && rounds >= fi.plan.CrashAtRound {
		fi.crashed = true
		fi.stats.Crashes++
	}
}

// checkSend panics with *FaultError when the sending node has fail-stopped:
// a crashed node's sends error, exactly as a real RPC into a dead process
// would. rounds is the network's current round count.
func (fi *FaultInjector) checkSend(src int, rounds int64) {
	if fi.crashed && src == fi.plan.CrashNode {
		panic(&FaultError{Kind: FaultCrash, Node: src, Round: rounds, Injected: fi.stats})
	}
}

// checkFlush fires the plan's injected untyped panic (flush is the 1-based
// index of the flush about to run).
func (fi *FaultInjector) checkFlush(flush int64) {
	if fi.plan.PanicAtFlush > 0 && flush == fi.plan.PanicAtFlush && !fi.panicked {
		fi.panicked = true
		fi.stats.Panics++
		panic(fmt.Sprintf("clique: injected fault-plane panic at flush %d", flush))
	}
}

// straggle draws the per-flush straggler event, returning the extra rounds
// to stretch this flush by (0 if none).
func (fi *FaultInjector) straggle(flush uint64) int64 {
	if !fi.roll(flush, 0, 0, saltStraggle, fi.plan.StraggleProb) {
		return 0
	}
	fi.stats.Straggles++
	fi.stats.SkewRounds += fi.plan.StraggleSkew
	return fi.plan.StraggleSkew
}

// link decides and applies this flush's faults on one link's delivery: e is
// the mailbox entry just filled from src, holding words, payloads or both.
// Faults mutate delivered data only — the charge for the link was computed
// from what was *sent*, so the ledger (and with it the determinism of round
// counts) is unchanged by corrupt/drop/duplicate; only straggle stretches
// rounds. A withheld entry is emptied in place — reads skip entries that
// deliver nothing — and keeps its word buffer for the next fill.
func (fi *FaultInjector) link(e *mailEntry, src, dst int, seq uint64) {
	// Fail-stop: anything a crashed node had in flight is withheld.
	crashed := fi.crashed && src == fi.plan.CrashNode
	if !crashed && fi.dataCapped() {
		return
	}
	p := &fi.plan
	if crashed || fi.roll(seq, src, dst, saltDrop, p.DropProb) {
		fi.stats.Dropped++
		e.ws = e.ws[:0]
		e.ps = trimPayloads(e.ps)
		return
	}
	// Only a word vector can be seen twice: payload readers index the
	// entries they expect, so a repeated payload would be counted but never
	// read.
	if len(e.ws) > 0 && fi.roll(seq, src, dst, saltDup, p.DupProb) {
		e.ws = append(e.ws, e.ws...)
		fi.stats.Duplicated++
		if fi.dataCapped() {
			return
		}
	}
	if fi.roll(seq, src, dst, saltCorrupt, p.CorruptProb) {
		h := fi.draw(seq, src, dst, saltCorruptPick)
		if len(e.ws) > 0 {
			e.ws[h%uint64(len(e.ws))] ^= 1 << ((h >> 32) & 63)
			fi.stats.Corrupted++
		} else if len(e.ps) > 0 {
			pick := e.ps[h%uint64(len(e.ps))]
			for _, co := range fi.corrupters {
				if co(pick, h) {
					fi.stats.Corrupted++
					break
				}
			}
		}
	}
}
