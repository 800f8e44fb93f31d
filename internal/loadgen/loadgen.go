// Package loadgen is the open-loop invocation load engine: it replays a
// seeded arrival process (Poisson or bursty, xorshift-driven like
// internal/faults) against a pool of function instances restored from
// memoized post-boot checkpoints (harness.BootCache), under a keep-alive
// idle-reclaim policy that produces a realistic cold/warm invocation mix.
//
// Each instance is a real simulated machine: the harness boots it once
// per fingerprint, the engine restores each instance from that one
// post-boot checkpoint, kills the simulated client, and drives the
// surviving function server host-side (kernel.Inject /
// kernel.TakeMessage + gemsys.RunUntilIdle). Service times are measured on the machine's
// virtual clock, so the cold/warm difference is the runtime's real lazy
// initialization, not a modeled constant; only the cold-start boot
// penalty (the setup phase the restore skipped) is charged analytically.
//
// Determinism is the contract, mirroring internal/sweep: one run is a
// sequential discrete-event simulation whose every decision is a pure
// function of (config, seed), so identical configs produce byte-identical
// latency tables, stats-registry text and trace JSON for any worker
// count; parallelism (RunMany) exists across sweep points, never inside a
// run. See docs/loadgen.md.
package loadgen

import (
	"fmt"
	"math"

	"svbench/internal/des"
	"svbench/internal/faults"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/sweep"
	"svbench/internal/trace"
)

// Config describes one load run.
type Config struct {
	// Cfg is the simulated machine configuration every instance boots
	// with (gemsys.DefaultConfig of an ISA).
	Cfg gemsys.Config
	// Spec is the function under load (harness catalog entry).
	Spec harness.Spec
	// RPS is the mean arrival rate in invocations per virtual second.
	RPS float64
	// Duration is the arrival window in virtual nanoseconds; completions
	// drain past it (open loop).
	Duration uint64
	// Seed drives the arrival process PRNG.
	Seed uint64
	// Arrival selects the arrival process (Poisson default).
	Arrival Process
	// Burst is the Bursty process's batch size (0 = DefaultBurst).
	Burst int
	// KeepAlive is the idle-reclaim threshold in virtual nanoseconds: an
	// instance idle for this long is torn down, so the next arrival it
	// would have served pays a cold start. Zero reclaims immediately on
	// idling; a value beyond the run keeps every instance warm.
	KeepAlive uint64
	// MaxInstances caps the pool (0 = DefaultMaxInstances); arrivals
	// beyond the cap queue FIFO.
	MaxInstances int
	// Cache, when non-nil, memoizes post-boot checkpoints across runs
	// (RunMany shares one cache over all points of a sweep). Nil boots
	// one master per run.
	Cache *harness.BootCache
	// Retry, when non-nil, is the engine-level recovery policy: a failed
	// attempt (injected error reply, dropped request or reply, corrupted
	// reply, spec-check failure) is re-sent up to MaxAttempts times with
	// exponential backoff, and a lost message surfaces at the per-attempt
	// reply deadline. All Retry fields are read as virtual nanoseconds on
	// the load clock. Without a policy a failed attempt fails its
	// invocation outright.
	Retry *faults.Retry
	// Chaos, when non-nil, is the fault layer's hook into the event loop:
	// it is consulted exactly once per attempt, in deterministic event
	// order, and its outcome is applied to that attempt. The scenario
	// engine (internal/scenario) implements it over a windowed fault
	// plan; see docs/scenarios.md.
	Chaos AttemptHook
	// OnInstance, when non-nil, is called once per instance creation — in
	// deterministic event order, with the pool-assigned instance id and
	// the machine's guest→service channel bindings — so the fault layer
	// can aim per-service rules at a specific instance's channels.
	// Implementations must not simulate on the callback: it fires inside
	// the event loop.
	OnInstance func(instID int, bindings []harness.ServiceBinding)
}

// AttemptHook returns the fault outcome for one load-generator attempt.
// Implementations must be deterministic in call order: the engine calls
// Attempt exactly once per attempt, so seed-driven hooks reproduce the
// same schedule on every run.
type AttemptHook interface {
	// Attempt is invoked for attempt (1-based) of invocation inv, sent at
	// virtual time now.
	Attempt(inv, attempt int, now uint64) faults.AttemptFault
}

// DefaultMaxInstances is the pool cap when Config.MaxInstances is zero.
const DefaultMaxInstances = 4

// PoolCap is the effective pool cap: Config.MaxInstances with the
// default resolved. Report renderers must use this rather than echoing
// the raw field — Run keeps the user's config verbatim (like Burst), so
// a defaulted cap stays zero in Report.Cfg.
func (c Config) PoolCap() int {
	if c.MaxInstances <= 0 {
		return DefaultMaxInstances
	}
	return c.MaxInstances
}

// Input caps (docs/loadgen.md "Determinism"). No user-supplied time an
// engine adds to an event time (Duration, Retry.Deadline, the largest
// backoff, the autoscaler's TickNS) exceeds maxTimeNS, so no event time
// wraps. maxRunAttempts bounds the expected arrivals times the attempt
// bound, and so the arrival stream and the trace ring, which Run sizes
// per attempt. Every config in the repo is far below them.
const (
	maxTimeNS        = 1 << 50 // about 13 virtual days
	maxRetryAttempts = 64
	maxRunAttempts   = 1 << 20
)

// invokeBudget bounds one host-driven invocation's functional execution.
const invokeBudget = 200_000_000

// errorReplyNS is the round-trip time charged for an injected error
// reply: the platform fails the attempt fast without running the
// function, well below any real service time.
const errorReplyNS = 20_000

// qrec is one attempt waiting for (or heading to) an instance. The fault
// outcome is frozen at send time, so an attempt that queues behind the
// pool cap carries the faults it drew when the client sent it.
type qrec struct {
	inv     int
	attempt int
	sent    uint64 // client send instant (queue-delay and deadline anchor)
	f       faults.AttemptFault
}

// Event classes, in the order events at the same instant run:
// completions first (a freeing instance can absorb work at the same
// instant), then client timers (a retrying invocation is older than a
// new arrival), then arrivals. Every event's id is its invocation.
const (
	evCompletion = iota
	evTimer
	evArrival
)

// event is one pending event of the loop. A completion frees inst at the
// event time; the client observes the attempt's outcome then plus any
// injected reply delay, unless the reply was dropped, in which case a
// timeout timer is already booked. A timer is a backoff expiring into
// attempt, or (timeout) a reply deadline expiring on a lost message.
type event struct {
	class       int
	inv         int
	attempt     int
	inst        *Instance
	f           faults.AttemptFault
	checkFailed bool
	timeout     bool
}

// Attempt-failure classes for failAttempt's accounting.
const (
	failTimeout = iota
	failBadReply
	failErrorReply
)

type engine struct {
	cfg     Config
	maxInst int // effective pool cap (cfg.PoolCap())
	fleet   *Fleet
	arrives []uint64
	invs    []Invocation

	idle   []*Instance
	queue  []qrec
	events des.Queue[event]

	live int

	// Counters registered into the stats registry.
	coldStarts    uint64
	warmStarts    uint64
	churnColds    uint64
	reclaims      uint64
	peak          uint64
	maxQueue      uint64
	checkFailures uint64

	// Chaos/retry-path counters (zero on fault-free runs).
	attempts     uint64
	retries      uint64
	timeouts     uint64
	badReplies   uint64
	errorReplies uint64
	faulted      uint64
	failed       uint64
	recovered    uint64

	tracer *trace.Tracer
	reg    *trace.Registry
	latD   *trace.Dist
	queueD *trace.Dist
	svcD   *trace.Dist
	coldD  *trace.Dist
}

// Run executes one load run. The returned Report is a pure function of
// cfg: rerunning with the same config reproduces it byte-for-byte.
func Run(cfg Config) (*Report, error) {
	if cfg.Spec.Build == nil || cfg.Spec.Request == nil {
		return nil, fmt.Errorf("loadgen: config has no function spec")
	}
	// NaN fails every comparison, so test for the valid range.
	if !(cfg.RPS > 0) || math.IsInf(cfg.RPS, 1) {
		return nil, fmt.Errorf("loadgen: RPS must be positive and finite, got %g", cfg.RPS)
	}
	if cfg.Duration == 0 {
		return nil, fmt.Errorf("loadgen: duration must be positive")
	}
	if cfg.MaxInstances < 0 {
		return nil, fmt.Errorf("loadgen: MaxInstances must be >= 1, got %d", cfg.MaxInstances)
	}
	if cfg.Duration > maxTimeNS {
		return nil, fmt.Errorf("loadgen: Duration %d ns exceeds the cap of %d ns", cfg.Duration, uint64(maxTimeNS))
	}
	if r := cfg.Retry; r != nil {
		if r.MaxAttempts > maxRetryAttempts {
			return nil, fmt.Errorf("loadgen: Retry.MaxAttempts %d exceeds the cap of %d", r.MaxAttempts, maxRetryAttempts)
		}
		if r.Deadline > maxTimeNS {
			return nil, fmt.Errorf("loadgen: Retry.Deadline %d ns exceeds the cap of %d ns", r.Deadline, uint64(maxTimeNS))
		}
		// The largest backoff is the one before the last attempt.
		if r.MaxAttempts >= 2 && r.Backoff > maxTimeNS>>min(r.MaxAttempts-2, 32) {
			return nil, fmt.Errorf("loadgen: Retry.Backoff %d ns doubled over %d attempts exceeds the cap of %d ns",
				r.Backoff, r.MaxAttempts, uint64(maxTimeNS))
		}
	}

	// The config is kept verbatim (Report.Cfg echoes what the caller
	// asked for); the effective cap is resolved into the engine.
	e := &engine{cfg: cfg, maxInst: cfg.PoolCap()}
	if n := cfg.RPS * float64(cfg.Duration) / 1e9; n*float64(e.maxAttempts()) > maxRunAttempts {
		return nil, fmt.Errorf("loadgen: RPS %g over Duration %d ns expects %.0f arrivals of up to %d attempts each, above the cap of %d attempts",
			cfg.RPS, cfg.Duration, n, e.maxAttempts(), maxRunAttempts)
	}
	e.arrives = genArrivals(cfg)
	e.invs = make([]Invocation, len(e.arrives))
	// Chaos runs emit extra retry/fail events: size the ring for the
	// worst-case attempt count so no window of the run is overwritten.
	perInv := 6
	if cfg.Chaos != nil || cfg.Retry != nil {
		perInv = 6 * e.maxAttempts()
	}
	e.tracer = trace.NewTracer(perInv*len(e.arrives) + 64)
	e.initRegistry()

	if err := e.bootMaster(); err != nil {
		return nil, err
	}
	if err := e.simulate(); err != nil {
		return nil, err
	}
	return e.report(), nil
}

// RunMany executes one load run per config across a worker pool of jobs
// workers (0 = sweep.DefaultJobs()); configs without their own Cache
// share one, so all points of a sweep boot each fingerprint once.
// Reports come back in config order and each is byte-identical to a solo
// Run of the same config — parallelism only exists between points.
func RunMany(cfgs []Config, jobs int) ([]*Report, []error) {
	shared := harness.NewBootCache()
	reports := make([]*Report, len(cfgs))
	errs := make([]error, len(cfgs))
	sweep.Each(len(cfgs), jobs, func(i int) {
		c := cfgs[i]
		if c.Cache == nil {
			c.Cache = shared
		}
		reports[i], errs[i] = Run(c)
	})
	return reports, errs
}

func (e *engine) initRegistry() {
	r := trace.NewRegistry()
	e.reg = r
	e.latD = r.NewDist("load.latencyNS", "end-to-end invocation latency (virtual ns)")
	e.queueD = r.NewDist("load.queueDelayNS", "arrival-to-placement queueing delay (virtual ns)")
	e.svcD = r.NewDist("load.serviceNS", "on-instance service time (virtual ns)")
	e.coldD = r.NewDist("load.coldPenaltyNS", "cold-start boot penalty (virtual ns)")
	r.Counter("load.coldStarts", "invocations that created an instance", &e.coldStarts)
	r.Counter("load.warmStarts", "invocations served by a warm instance", &e.warmStarts)
	r.Counter("load.churnColdStarts", "post-warmup cold starts (keep-alive churn)", &e.churnColds)
	r.Counter("load.reclaims", "idle instances reclaimed by keep-alive", &e.reclaims)
	r.Counter("load.peakInstances", "pool high-water mark", &e.peak)
	r.Counter("load.maxQueueDepth", "deepest FIFO backlog at the pool cap", &e.maxQueue)
	r.Counter("load.checkFailures", "responses failing the spec's check", &e.checkFailures)
	r.Func("load.invocations", "arrivals replayed against the pool", func() uint64 {
		return uint64(len(e.arrives))
	})
	// Chaos/retry-path statistics: registered unconditionally so the
	// stats schema is constant, zero on fault-free runs.
	r.Counter("load.attempts", "send attempts including retries", &e.attempts)
	r.Counter("load.retries", "attempts re-sent after a failure", &e.retries)
	r.Counter("load.timeouts", "attempts that hit the reply deadline", &e.timeouts)
	r.Counter("load.badReplies", "replies corrupted or failing the check", &e.badReplies)
	r.Counter("load.errorReplies", "injected fast-fail error replies", &e.errorReplies)
	r.Counter("load.faultedAttempts", "attempts the fault layer touched", &e.faulted)
	r.Counter("load.failedInvocations", "invocations that exhausted every attempt", &e.failed)
	r.Counter("load.recoveredInvocations", "invocations that succeeded after >= 1 retry", &e.recovered)
}

// maxAttempts is the per-invocation attempt bound under the retry policy
// (1 without one).
func (e *engine) maxAttempts() int {
	if e.cfg.Retry == nil || e.cfg.Retry.MaxAttempts < 1 {
		return 1
	}
	return e.cfg.Retry.MaxAttempts
}

// deadlineNS is the per-attempt reply deadline for lost messages. A
// chaos run without an explicit policy still needs one — a dropped
// message would otherwise hang the client forever — so the default
// policy's deadline applies.
func (e *engine) deadlineNS() uint64 {
	if e.cfg.Retry != nil && e.cfg.Retry.Deadline > 0 {
		return e.cfg.Retry.Deadline
	}
	return faults.DefaultRetry().Deadline
}

// backoffNS is the wait before re-sending after attempt failures
// (exponential, shift-capped so it never wraps).
func (e *engine) backoffNS(attempt int) uint64 {
	if e.cfg.Retry == nil {
		return 0
	}
	shift := attempt - 1
	if shift > 32 {
		shift = 32
	}
	return e.cfg.Retry.Backoff << uint(shift)
}

// bootMaster builds the fleet, which simulates (or fetches from the
// cache) the post-boot checkpoint instances restore from.
func (e *engine) bootMaster() error {
	f, err := NewFleet(e.cfg.Cfg, e.cfg.Spec, e.cfg.Cache, e.cfg.OnInstance)
	if err != nil {
		return err
	}
	e.fleet = f
	return nil
}

// serve drives one invocation through inst's machine, booking the
// check-failure accounting the fleet leaves to its owner.
func (e *engine) serve(inst *Instance, invID int) (uint64, bool, error) {
	svc, checkFailed, err := e.fleet.Serve(inst, invID)
	if err != nil {
		return 0, false, err
	}
	if checkFailed {
		e.checkFailures++
		e.invs[invID].CheckFailed = true
	}
	return svc, checkFailed, nil
}

// push schedules ev at time at.
func (e *engine) push(at uint64, ev event) { e.events.Push(at, ev.class, ev.inv, ev) }

// simulate runs the discrete-event loop over the event queue. Arrivals
// are queued one at a time: each schedules the next.
func (e *engine) simulate() error {
	if len(e.arrives) > 0 {
		e.push(e.arrives[0], event{class: evArrival})
	}
	for e.events.Len() > 0 {
		now, ev := e.events.Pop()
		var err error
		switch ev.class {
		case evCompletion:
			err = e.complete(ev, now)
		case evTimer:
			if ev.timeout {
				e.failAttempt(ev.inv, ev.attempt, now, failTimeout)
			} else {
				err = e.sendAttempt(ev.inv, ev.attempt, now)
			}
		case evArrival:
			err = e.arrive(ev.inv, now)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// arrive admits invocation id and schedules the next arrival.
func (e *engine) arrive(id int, now uint64) error {
	if next := id + 1; next < len(e.arrives) {
		e.push(e.arrives[next], event{class: evArrival, inv: next})
	}
	e.invs[id].ID = id
	e.invs[id].Arrive = now
	e.tracer.EmitAt(trace.EvInvokeArrive, 0, now, 0, uint64(id), 0)
	return e.sendAttempt(id, 1, now)
}

// sendAttempt issues one client attempt: the fault hook is consulted
// exactly here (once per attempt, in event order), and the outcome
// decides whether the request reaches the pool at all.
func (e *engine) sendAttempt(inv, attempt int, now uint64) error {
	e.invs[inv].Attempts = attempt
	e.attempts++
	var f faults.AttemptFault
	if e.cfg.Chaos != nil {
		f = e.cfg.Chaos.Attempt(inv, attempt, now)
	}
	if f.Faulted() {
		e.invs[inv].FaultedAttempts++
		e.faulted++
	}
	if f.DropRequest || f.DropResponse {
		// A lost request or reply: the client notices at its deadline,
		// which runs from the send, however long the attempt queues.
		e.push(now+e.deadlineNS(), event{class: evTimer, inv: inv, attempt: attempt, timeout: true})
	}
	if f.DropRequest {
		return nil // no instance is touched
	}
	return e.dispatch(qrec{inv: inv, attempt: attempt, sent: now, f: f}, now)
}

// failAttempt books one attempt's failure: the next attempt is scheduled
// under the retry policy, or the invocation fails once attempts are
// exhausted (or no policy exists).
func (e *engine) failAttempt(inv, attempt int, now uint64, why int) {
	switch why {
	case failTimeout:
		e.timeouts++
	case failBadReply:
		e.badReplies++
	case failErrorReply:
		e.errorReplies++
	}
	if attempt < e.maxAttempts() {
		e.retries++
		e.tracer.EmitAt(trace.EvInvokeRetry, 0, now, 0, uint64(inv), uint64(attempt+1))
		e.push(now+e.backoffNS(attempt), event{class: evTimer, inv: inv, attempt: attempt + 1})
		return
	}
	iv := &e.invs[inv]
	iv.Failed = true
	e.failed++
	iv.Done = now
	iv.Latency = now - iv.Arrive
	e.observeFinal(iv)
	e.tracer.EmitAt(trace.EvInvokeFail, 0, now, 0, uint64(inv), uint64(iv.Attempts))
}

// finish retires an invocation successfully at the instant the client
// observes the reply.
func (e *engine) finish(inv int, now uint64) {
	iv := &e.invs[inv]
	iv.Done = now
	iv.Latency = now - iv.Arrive
	if iv.Attempts > 1 {
		e.recovered++
	}
	e.observeFinal(iv)
	e.tracer.EmitAt(trace.EvInvokeDone, 0, now, 0, uint64(inv), iv.Latency)
}

// observeFinal records the invocation's final metrics into the
// distributions — once per invocation, at success or exhaustion.
func (e *engine) observeFinal(iv *Invocation) {
	e.latD.Observe(iv.Latency)
	e.queueD.Observe(iv.QueueDelay)
	e.svcD.Observe(iv.Service)
	if iv.Cold {
		e.coldD.Observe(iv.ColdPenalty)
	}
}

// leaseEnd is when an idle instance's keep-alive lease expires
// (overflow-safe: a huge keep-alive never expires).
func (e *engine) leaseEnd(inst *Instance) uint64 {
	end := inst.IdleSince + e.cfg.KeepAlive
	if end < inst.IdleSince {
		return ^uint64(0)
	}
	return end
}

// reclaimExpired tears down idle instances whose lease ended at or before
// now, stamping the reclaim at the lease end (when it really happened).
func (e *engine) reclaimExpired(now uint64) {
	kept := e.idle[:0]
	for _, inst := range e.idle {
		end := e.leaseEnd(inst)
		if end > now {
			kept = append(kept, inst)
			continue
		}
		e.reclaims++
		e.live--
		e.tracer.EmitAt(trace.EvInstReclaim, uint8(inst.ID), end, 0, uint64(inst.ID), 0)
		if e.fleet != nil {
			e.fleet.Release(inst)
		}
	}
	e.idle = kept
}

// takeWarm removes and returns the warm instance that has been idle the
// shortest time (ties: lowest id) — the usual most-recently-used
// keep-alive policy — or nil when none is live and warm.
func (e *engine) takeWarm() *Instance {
	best := -1
	for i, inst := range e.idle {
		if best < 0 || inst.IdleSince > e.idle[best].IdleSince ||
			(inst.IdleSince == e.idle[best].IdleSince && inst.ID < e.idle[best].ID) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	inst := e.idle[best]
	e.idle = append(e.idle[:best], e.idle[best+1:]...)
	return inst
}

// dispatch places one attempt arriving (or dequeued) at now onto a warm
// instance, a cold-started one, or the FIFO queue at the pool cap.
//
// Ordering contract at equal virtual timestamps: reclaim runs before
// placement, and reclaimExpired keeps only instances whose lease strictly
// outlives now — an instance whose lease ends exactly when an attempt
// arrives is already gone, so the attempt cold-starts. This matches the
// KeepAlive=0 semantics (reclaim on idling) and is pinned by
// TestReclaimDispatchTieBreak; flipping it would silently shift cold/warm
// accounting in scenario phase buckets.
func (e *engine) dispatch(q qrec, now uint64) error {
	e.reclaimExpired(now)
	if inst := e.takeWarm(); inst != nil {
		e.warmStarts++
		return e.start(q, now, inst, false)
	}
	if e.live < e.maxInst {
		inst, err := e.fleet.Acquire()
		if err != nil {
			return err
		}
		e.live++
		e.coldStarts++
		if uint64(e.live) > e.peak {
			e.peak = uint64(e.live)
		} else {
			// Refilling capacity the keep-alive policy reclaimed earlier:
			// a churn cold start, the post-warmup kind.
			e.churnColds++
		}
		e.tracer.EmitAt(trace.EvColdStart, uint8(inst.ID), now, 0, uint64(inst.ID), inst.Penalty)
		return e.start(q, now, inst, true)
	}
	e.queue = append(e.queue, q)
	if uint64(len(e.queue)) > e.maxQueue {
		e.maxQueue = uint64(len(e.queue))
	}
	return nil
}

// start serves one attempt on inst beginning at now (plus the boot
// penalty when cold) and schedules its completion. Queue delay and cold
// penalties accumulate across an invocation's attempts.
func (e *engine) start(q qrec, now uint64, inst *Instance, cold bool) error {
	inv := &e.invs[q.inv]
	inv.Instance = inst.ID
	inv.QueueDelay += now - q.sent
	startNS := now
	if cold {
		inv.Cold = true
		inv.ColdPenalty += inst.Penalty
		startNS += inst.Penalty
	}
	var svc uint64
	checkFailed := false
	if q.f.ErrorReply {
		// Fail fast: the injected error frame comes back without running
		// the function.
		svc = errorReplyNS
	} else {
		var err error
		svc, checkFailed, err = e.serve(inst, q.inv)
		if err != nil {
			return err
		}
		if q.f.ServiceMult > 1 {
			svc *= q.f.ServiceMult
		}
	}
	inv.Start = startNS
	inv.Service = svc
	e.tracer.EmitAt(trace.EvInvokeRun, uint8(inst.ID), startNS, 0, uint64(q.inv), svc)
	e.push(startNS+svc, event{
		class: evCompletion, inv: q.inv, attempt: q.attempt, inst: inst,
		f: q.f, checkFailed: checkFailed,
	})
	return nil
}

// complete retires one attempt: the instance idles from the completion
// instant, the client observes the outcome (unless the reply was lost),
// and the queue head (if any) is placed immediately — normally warm, on
// the instance that just freed up; with KeepAlive 0 it cold-starts.
func (e *engine) complete(ev event, now uint64) error {
	ev.inst.IdleSince = now
	e.idle = append(e.idle, ev.inst)
	if !ev.f.DropResponse {
		observe := now + ev.f.DelayNS
		switch {
		case ev.f.ErrorReply:
			e.failAttempt(ev.inv, ev.attempt, observe, failErrorReply)
		case ev.f.BadReply, ev.checkFailed && e.cfg.Retry != nil:
			// A corrupted reply — or one failing the spec's check under a
			// retry policy — is re-attempted like any client would.
			e.failAttempt(ev.inv, ev.attempt, observe, failBadReply)
		default:
			e.finish(ev.inv, observe)
		}
	}
	if len(e.queue) == 0 {
		return nil
	}
	q := e.queue[0]
	e.queue = e.queue[1:]
	return e.dispatch(q, now)
}
