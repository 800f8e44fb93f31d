// Package faults implements deterministic, seed-driven fault injection
// for the simulated serverless stack. A Plan (seed + rules) compiles into
// an Injector that wires into three layers: the kernel IPC layer (message
// drop, payload corruption, delivery delay charged as virtual cycles),
// the native service layer (error replies, latency spikes and outage
// windows on the database/cache engines, via FlakyService), and the
// harness layer (a Retry policy compiled into the IR load generator, with
// fault counters reported back through Report).
//
// Everything is driven by one xorshift PRNG owned by the injector — no
// math/rand global state — and the simulation itself is deterministic, so
// the same seed yields a bit-identical fault schedule and sim trace.
package faults

import (
	"math"

	"svbench/internal/rpc"
)

// PRNG is a deterministic xorshift64* generator. The zero seed is
// remapped so the stream never degenerates to all zeros.
type PRNG struct {
	s uint64
}

// NewPRNG returns a generator seeded with seed.
func NewPRNG(seed uint64) *PRNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	return &PRNG{s: seed}
}

// Uint64 returns the next value of the stream.
func (p *PRNG) Uint64() uint64 {
	x := p.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.s = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a value in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / float64(1<<53)
}

// Exp returns an exponentially distributed value with the given mean,
// such as the gap to the next arrival of a Poisson process.
func (p *PRNG) Exp(mean float64) float64 {
	// 1-Float64() is in (0,1], so the log argument never hits zero.
	return -math.Log(1-p.Float64()) * mean
}

// Chance reports true with probability prob.
func (p *PRNG) Chance(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		p.Uint64() // keep the draw count schedule-independent of prob
		return true
	}
	return p.Float64() < prob
}

// Kind enumerates the fault classes a Rule can inject.
type Kind int

const (
	// DropMsg discards a committed IPC message before delivery.
	DropMsg Kind = iota
	// CorruptMsg flips bytes of a committed message's payload in place.
	CorruptMsg
	// DelayMsg delivers a message late, charging extra virtual cycles so
	// the measured core observes realistic tail latency.
	DelayMsg
	// ErrorReply makes a native service answer with an error frame
	// instead of performing the operation.
	ErrorReply
	// LatencySpike multiplies a native service's charged cycles.
	LatencySpike
	// Outage makes a native service fail every request inside a window:
	// After healthy requests, then For failing ones.
	Outage
)

// Symbolic channel targets for IPC rules. Non-negative values address a
// concrete kernel channel id; the symbolic ones are resolved when the
// harness binds the injector to the load generator's channel pair.
const (
	// AnyChannel matches every kernel channel.
	AnyChannel = -1
	// ClientReq matches the client→server request channel.
	ClientReq = -2
	// ClientResp matches the server→client response channel.
	ClientResp = -3
)

// Rule is one injection rule. IPC rules (DropMsg/CorruptMsg/DelayMsg) use
// Channel and Prob; service rules (ErrorReply/LatencySpike/Outage) use
// Service ("" or "*" matches every engine) plus their kind's fields.
// Window, when non-zero, restricts the rule to a timed interval of
// virtual time (see Window); the zero window keeps the rule always
// active, preserving pre-window plans unchanged.
type Rule struct {
	Kind    Kind
	Prob    float64 // per-event probability (ignored by Outage)
	Channel int     // IPC target: channel id or a symbolic constant
	Service string  // service target: engine name, "" or "*" for any
	Delay   uint64  // DelayMsg: extra delivery delay in virtual cycles
	Mult    uint64  // LatencySpike: service-cycle multiplier
	After   int     // Outage: healthy requests before the window opens
	For     int     // Outage: failing requests in the window
	Window  Window  // timed activation window (zero = always active)
}

// Plan is a complete injection schedule: a seed and the rules it drives.
// The same plan produces the same fault schedule on every run.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// DefaultPlan returns a moderate chaos plan targeting the client-visible
// channel pair and every native service. Requests are only dropped or
// delayed (never corrupted: a corrupted request could drive the workload
// code itself off the rails); responses face all three IPC faults, which
// the retry policy recovers host-side.
func DefaultPlan(seed uint64) *Plan {
	return &Plan{
		Seed: seed,
		Rules: []Rule{
			{Kind: DropMsg, Channel: ClientReq, Prob: 0.04},
			{Kind: DropMsg, Channel: ClientResp, Prob: 0.04},
			{Kind: DelayMsg, Channel: ClientResp, Prob: 0.15, Delay: 20_000},
			{Kind: CorruptMsg, Channel: ClientResp, Prob: 0.05},
			{Kind: ErrorReply, Service: "*", Prob: 0.08},
			{Kind: LatencySpike, Service: "*", Prob: 0.10, Mult: 8},
		},
	}
}

// Retry is the load generator's recovery policy, compiled into the IR
// client loop. All times are virtual cycles (the functional clock).
type Retry struct {
	// MaxAttempts bounds total attempts per request (first try included).
	MaxAttempts int
	// Backoff is the wait before the second attempt; it doubles with
	// every further retry (exponential backoff).
	Backoff uint64
	// Deadline is the per-attempt reply deadline. It must be positive:
	// without one a dropped message would block the client forever.
	Deadline uint64
}

// DefaultRetry returns the policy the chaos modes use: four attempts,
// 50k-cycle base backoff, 2M-cycle per-attempt deadline.
func DefaultRetry() *Retry {
	return &Retry{MaxAttempts: 4, Backoff: 50_000, Deadline: 2_000_000}
}

// Client-reported fault events, delivered through the kernel's
// fault-note host call into Injector.Note.
const (
	// EvTimeout: an attempt's reply deadline expired.
	EvTimeout uint64 = iota
	// EvBadReply: a reply arrived but failed the response check.
	EvBadReply
	// EvRetry: the client is about to re-attempt a request.
	EvRetry
	// EvRecovered: a request succeeded after at least one retry.
	EvRecovered
	// EvExhausted: a request failed after exhausting every attempt.
	EvExhausted
)

// Report is the fault ledger of one run: what was injected at each layer,
// what the client observed, and how recovery went. It is comparable, so
// determinism checks can use ==.
type Report struct {
	Injected  uint64 // total faults injected across all layers
	Dropped   uint64 // IPC messages discarded
	Corrupted uint64 // IPC payloads corrupted
	Delayed   uint64 // IPC messages delivered late

	ErrorReplies uint64 // service error frames injected
	Spikes       uint64 // service latency spikes injected
	Outages      uint64 // service requests rejected inside outage windows

	Surfaced   uint64 // failures the client observed (timeouts + bad replies)
	Timeouts   uint64 // attempts that hit the reply deadline
	BadReplies uint64 // replies that failed the response check
	Retried    uint64 // retry attempts the client issued
	Recovered  uint64 // requests that succeeded after >= 1 retry
	Exhausted  uint64 // requests that failed after all attempts
}

// StatusUnavailable is the wire status an injected service error reply
// carries. It is disjoint from the db package's codes (OK/NotFound/
// BadReq); workloads treat any non-zero status as a miss, so an injected
// error degrades the response instead of derailing the simulated code.
const StatusUnavailable = 3

// ErrorFrame encodes the canonical injected error reply: a well-formed
// wire message holding the single status field StatusUnavailable.
func ErrorFrame() []byte {
	w := rpc.NewWriter()
	w.PutInt(StatusUnavailable)
	return w.Bytes()
}

// errorReplyCycles is the service time charged for an injected error
// reply — a fast-fail, far below any engine's real operation cost.
const errorReplyCycles = 400
