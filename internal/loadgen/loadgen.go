// Package loadgen is the open-loop invocation load engine: it replays a
// seeded arrival process (Poisson or bursty, xorshift-driven like
// internal/faults) against a pool of function instances cloned from
// memoized post-boot checkpoints (harness.BootCache), under a keep-alive
// idle-reclaim policy that produces a realistic cold/warm invocation mix.
//
// Each instance is a real simulated machine: the harness boots it once
// per fingerprint, the engine restores private clones of the post-boot
// checkpoint, kills the simulated client, and drives the surviving
// function server host-side (kernel.Inject / kernel.TakeMessage +
// gemsys.RunUntilIdle). Service times are measured on the machine's
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

// busyRec tracks one in-flight attempt on its instance. done is when the
// instance frees; the client observes the outcome at done plus any
// injected reply delay, unless the reply was dropped (deliver=false), in
// which case a timeout timer is already booked.
type busyRec struct {
	inst        *Instance
	inv         int
	attempt     int
	done        uint64
	f           faults.AttemptFault
	deliver     bool
	checkFailed bool
}

// Timer kinds of the event loop (chaos/retry path only).
const (
	timerRetry   = iota // re-send the invocation's next attempt at due
	timerTimeout        // the client gives up waiting on a lost message
)

// timerRec is one pending client-side timer.
type timerRec struct {
	due     uint64
	inv     int
	attempt int
	kind    uint8
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
	busy   []busyRec
	queue  []qrec
	timers []timerRec

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

	// dispatchErr latches the first error raised by a dispatch that runs
	// inside completion handling (queue-head placement).
	dispatchErr error

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

	// The config is kept verbatim (Report.Cfg echoes what the caller
	// asked for); the effective cap is resolved into the engine.
	e := &engine{cfg: cfg, maxInst: cfg.PoolCap()}
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
	return e.report()
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

// simulate runs the discrete-event loop: completions, client timers and
// arrivals in virtual-time order. The tie-break at equal timestamps is
// completions first (a freeing instance can absorb work at the same
// instant), then timers (a retrying invocation is older than a new
// arrival), then arrivals.
func (e *engine) simulate() error {
	next := 0
	for next < len(e.arrives) || len(e.busy) > 0 || len(e.timers) > 0 {
		ci := e.earliestCompletion()
		ti := e.earliestTimer()
		ct, tt, at := ^uint64(0), ^uint64(0), ^uint64(0)
		if ci >= 0 {
			ct = e.busy[ci].done
		}
		if ti >= 0 {
			tt = e.timers[ti].due
		}
		if next < len(e.arrives) {
			at = e.arrives[next]
		}
		switch {
		case ci >= 0 && ct <= tt && ct <= at:
			rec := e.busy[ci]
			e.busy = append(e.busy[:ci], e.busy[ci+1:]...)
			e.complete(rec)
		case ti >= 0 && tt <= at:
			tm := e.timers[ti]
			e.timers = append(e.timers[:ti], e.timers[ti+1:]...)
			e.fireTimer(tm)
		default:
			id := next
			next++
			now := e.arrives[id]
			e.invs[id].ID = id
			e.invs[id].Arrive = now
			e.tracer.EmitAt(trace.EvInvokeArrive, 0, now, 0, uint64(id), 0)
			if err := e.sendAttempt(id, 1, now); err != nil {
				return err
			}
		}
		if e.dispatchErr != nil {
			return e.dispatchErr
		}
	}
	return nil
}

// earliestTimer returns the pending timer index with the smallest due
// time (ties: lowest invocation id, then attempt, then kind), or -1.
func (e *engine) earliestTimer() int {
	best := -1
	for i := range e.timers {
		if best < 0 {
			best = i
			continue
		}
		a, b := &e.timers[i], &e.timers[best]
		if a.due < b.due ||
			(a.due == b.due && (a.inv < b.inv ||
				(a.inv == b.inv && (a.attempt < b.attempt ||
					(a.attempt == b.attempt && a.kind < b.kind))))) {
			best = i
		}
	}
	return best
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
	if f.DropRequest {
		// The request is lost before it reaches the platform: no instance
		// is touched and the client notices at its reply deadline.
		e.timers = append(e.timers, timerRec{due: now + e.deadlineNS(), inv: inv, attempt: attempt, kind: timerTimeout})
		return nil
	}
	return e.dispatch(qrec{inv: inv, attempt: attempt, sent: now, f: f}, now)
}

// fireTimer handles one client-side timer: a backoff expiring into the
// next attempt, or a reply deadline expiring on a lost message.
func (e *engine) fireTimer(tm timerRec) {
	switch tm.kind {
	case timerRetry:
		if err := e.sendAttempt(tm.inv, tm.attempt, tm.due); err != nil && e.dispatchErr == nil {
			e.dispatchErr = err
		}
	case timerTimeout:
		e.failAttempt(tm.inv, tm.attempt, tm.due, failTimeout)
	}
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
		e.timers = append(e.timers, timerRec{due: now + e.backoffNS(attempt), inv: inv, attempt: attempt + 1, kind: timerRetry})
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

// earliestCompletion returns the busy index with the smallest completion
// time (ties: lowest invocation id), or -1.
func (e *engine) earliestCompletion() int {
	best := -1
	for i := range e.busy {
		if best < 0 || e.busy[i].done < e.busy[best].done ||
			(e.busy[i].done == e.busy[best].done && e.busy[i].inv < e.busy[best].inv) {
			best = i
		}
	}
	return best
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
// penalty when cold) and books the instance-free instant. Queue delay and
// cold penalties accumulate across an invocation's attempts.
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
	done := startNS + svc
	if q.f.DropResponse {
		// The reply is lost on the way back: the instance did the work,
		// but the client only notices at its per-attempt deadline.
		e.timers = append(e.timers, timerRec{due: q.sent + e.deadlineNS(), inv: q.inv, attempt: q.attempt, kind: timerTimeout})
	}
	e.busy = append(e.busy, busyRec{
		inst: inst, inv: q.inv, attempt: q.attempt, done: done,
		f: q.f, deliver: !q.f.DropResponse, checkFailed: checkFailed,
	})
	return nil
}

// complete retires one attempt: the instance idles from the completion
// instant, the client observes the outcome (unless the reply was lost),
// and the queue head (if any) is placed immediately — warm, on the
// instance that just freed up.
func (e *engine) complete(rec busyRec) {
	now := rec.done
	rec.inst.IdleSince = now
	e.idle = append(e.idle, rec.inst)
	if rec.deliver {
		observe := now + rec.f.DelayNS
		switch {
		case rec.f.ErrorReply:
			e.failAttempt(rec.inv, rec.attempt, observe, failErrorReply)
		case rec.f.BadReply, rec.checkFailed && e.cfg.Retry != nil:
			// A corrupted reply — or one failing the spec's check under a
			// retry policy — is re-attempted like any client would.
			e.failAttempt(rec.inv, rec.attempt, observe, failBadReply)
		default:
			e.finish(rec.inv, observe)
		}
	}
	if len(e.queue) > 0 {
		q := e.queue[0]
		e.queue = e.queue[1:]
		// Normally the queue head lands warm on the instance that just
		// idled; with KeepAlive 0 it can cold-start instead, which may
		// fail — latch the error for simulate to surface.
		if err := e.dispatch(q, now); err != nil && e.dispatchErr == nil {
			e.dispatchErr = err
		}
	}
}
