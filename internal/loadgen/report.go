package loadgen

import (
	"fmt"
	"sort"
	"strings"

	"svbench/internal/trace"
)

// Invocation is one request's lifecycle through the pool. All times are
// virtual nanoseconds. On fault-free runs (one attempt per invocation)
// Latency = QueueDelay + ColdPenalty + Service; under chaos, QueueDelay
// and ColdPenalty accumulate across attempts and Latency additionally
// carries backoffs, deadlines and injected delays.
type Invocation struct {
	ID          int
	Instance    int    // instance of the last attempt that ran
	Arrive      uint64 // entered the system
	Start       uint64 // last attempt began executing
	Done        uint64 // client observed the final outcome
	QueueDelay  uint64 // waited for an instance (summed over attempts)
	ColdPenalty uint64 // boot penalties paid (summed over attempts)
	Service     uint64 // on-instance execution time of the last attempt
	Latency     uint64 // Done - Arrive
	Cold        bool   // any attempt cold-started
	CheckFailed bool   // some reply failed the spec's check
	// Chaos/retry-path fields (zero on fault-free runs).
	Attempts        int  // send attempts issued (>= 1)
	FaultedAttempts int  // attempts the fault layer touched
	Failed          bool // exhausted every attempt without a good reply
}

// Pcts summarizes one metric's distribution with nearest-rank
// percentiles over the run's invocations.
type Pcts struct {
	P50, P95, P99, Max uint64
	Mean               float64
}

// Report is one load run's complete result. Every field — and the
// rendered table and trace JSON — is a pure function of the run's
// Config.
type Report struct {
	Cfg         Config
	Invocations []Invocation

	ColdStarts      uint64
	WarmStarts      uint64
	ChurnColdStarts uint64 // post-warmup cold starts (keep-alive churn)
	Reclaims        uint64
	PeakInstances   uint64
	MaxQueueDepth   uint64
	CheckFailures   uint64

	// Chaos/retry-path counters (zero on fault-free runs).
	Attempts        uint64 // send attempts including retries
	Retries         uint64 // attempts re-sent after a failure
	Timeouts        uint64 // attempts that hit the reply deadline
	BadReplies      uint64 // replies corrupted or failing the check
	ErrorReplies    uint64 // injected fast-fail error replies
	FaultedAttempts uint64 // attempts the fault layer touched
	Failed          uint64 // invocations that exhausted every attempt
	Recovered       uint64 // invocations that succeeded after >= 1 retry

	Latency     Pcts
	QueueDelay  Pcts
	Service     Pcts
	ColdPenalty Pcts // over cold invocations only

	// Makespan is the last completion's timestamp; Throughput is
	// completions per virtual second over it.
	Makespan   uint64
	Throughput float64

	// StatsText is the run's stats-registry dump (gem5 stats.txt style).
	// Events holds the trace records of arrival/run/done/cold-start/
	// reclaim (plus retry/fail under chaos) events, which TraceJSON
	// renders and downstream layers (internal/scenario) splice their own
	// events into; TraceDropped counts ring overwrites.
	StatsText    string
	Events       []trace.Event
	TraceDropped uint64
}

// TraceJSON renders the run's events as a Chrome/Perfetto trace.
func (r *Report) TraceJSON() ([]byte, error) {
	return trace.ChromeJSON(r.Events, nil, r.TraceDropped)
}

// Percentiles computes nearest-rank percentiles of vals (unsorted, left
// unmodified) — the same summary the engine applies to its own metrics,
// exported for phase-bucketed reporting.
func Percentiles(vals []uint64) Pcts { return pcts(vals) }

// pcts computes nearest-rank percentiles of vals (unsorted, not
// modified). The rank is the exact integer ceil(p·n) — a float product
// plus a fudge constant can misrank at large n, where the rounding
// error of p·n outgrows any fixed epsilon.
func pcts(vals []uint64) Pcts {
	if len(vals) == 0 {
		return Pcts{}
	}
	s := append([]uint64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(pct int) uint64 {
		// ceil(pct·n/100) in integer arithmetic, 1-based → index.
		i := (pct*len(s)+99)/100 - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return Pcts{
		P50:  rank(50),
		P95:  rank(95),
		P99:  rank(99),
		Max:  s[len(s)-1],
		Mean: sum / float64(len(s)),
	}
}

// report assembles the Report after the event loop drains.
func (e *engine) report() *Report {
	label := fmt.Sprintf("%s load (%s)", e.cfg.Spec.Name, e.cfg.Cfg.Arch)
	r := &Report{
		Cfg:             e.cfg,
		Invocations:     e.invs,
		ColdStarts:      e.coldStarts,
		WarmStarts:      e.warmStarts,
		ChurnColdStarts: e.churnColds,
		Reclaims:        e.reclaims,
		PeakInstances:   e.peak,
		MaxQueueDepth:   e.maxQueue,
		CheckFailures:   e.checkFailures,
		Attempts:        e.attempts,
		Retries:         e.retries,
		Timeouts:        e.timeouts,
		BadReplies:      e.badReplies,
		ErrorReplies:    e.errorReplies,
		FaultedAttempts: e.faulted,
		Failed:          e.failed,
		Recovered:       e.recovered,
		StatsText:       e.reg.Text(label),
		Events:          e.tracer.Events(),
		TraceDropped:    e.tracer.Dropped,
	}

	lat := make([]uint64, 0, len(e.invs))
	qd := make([]uint64, 0, len(e.invs))
	svc := make([]uint64, 0, len(e.invs))
	var cold []uint64
	completions := 0
	for i := range e.invs {
		inv := &e.invs[i]
		lat = append(lat, inv.Latency)
		qd = append(qd, inv.QueueDelay)
		svc = append(svc, inv.Service)
		if inv.Cold {
			cold = append(cold, inv.ColdPenalty)
		}
		if !inv.Failed {
			completions++
		}
		if inv.Done > r.Makespan {
			r.Makespan = inv.Done
		}
	}
	r.Latency = pcts(lat)
	r.QueueDelay = pcts(qd)
	r.Service = pcts(svc)
	r.ColdPenalty = pcts(cold)
	if r.Makespan > 0 {
		// Completions per virtual second: invocations that exhausted every
		// attempt never completed, so they don't count as throughput.
		r.Throughput = float64(completions) * 1e9 / float64(r.Makespan)
	}
	return r
}

// ColdRate is the fraction of invocations that cold-started at least
// once. It is defined over invocations with Cold set — not over the
// attempt-level ColdStarts counter, which can exceed the invocation
// count under retries (every re-sent attempt may cold-start again) and
// would push a "rate" past 1.0.
func (r *Report) ColdRate() float64 {
	if len(r.Invocations) == 0 {
		return 0
	}
	cold := 0
	for i := range r.Invocations {
		if r.Invocations[i].Cold {
			cold++
		}
	}
	return float64(cold) / float64(len(r.Invocations))
}

// ErrorRate is the fraction of invocations that failed outright
// (exhausted every attempt).
func (r *Report) ErrorRate() float64 {
	if len(r.Invocations) == 0 {
		return 0
	}
	return float64(r.Failed) / float64(len(r.Invocations))
}

// Table renders the run's deterministic latency table: configuration
// echo, cold/warm mix, and a percentile row per metric. Same config,
// same bytes.
func (r *Report) Table() string {
	var sb strings.Builder
	c := r.Cfg
	fmt.Fprintf(&sb, "== load: %s on %s ==\n", c.Spec.Name, c.Cfg.Arch)
	fmt.Fprintf(&sb, "arrival      %s, %.1f rps over %.3f ms window (seed %d", c.Arrival, c.RPS, float64(c.Duration)/1e6, c.Seed)
	if c.Arrival == Bursty {
		burst := c.Burst
		if burst <= 0 {
			burst = DefaultBurst
		}
		fmt.Fprintf(&sb, ", burst %d", burst)
	}
	sb.WriteString(")\n")
	fmt.Fprintf(&sb, "policy       keep-alive %.3f ms, pool cap %d\n", float64(c.KeepAlive)/1e6, c.PoolCap())
	fmt.Fprintf(&sb, "invocations  %d (%d check failures)\n", len(r.Invocations), r.CheckFailures)
	fmt.Fprintf(&sb, "cold starts  %d (%d warmup + %d churn), warm %d, reclaims %d\n",
		r.ColdStarts, r.ColdStarts-r.ChurnColdStarts, r.ChurnColdStarts, r.WarmStarts, r.Reclaims)
	fmt.Fprintf(&sb, "pool         peak %d instances, max queue depth %d\n", r.PeakInstances, r.MaxQueueDepth)
	if c.Chaos != nil || c.Retry != nil {
		fmt.Fprintf(&sb, "attempts     %d total (%d retried, %d faulted): %d timeouts, %d bad replies, %d error replies\n",
			r.Attempts, r.Retries, r.FaultedAttempts, r.Timeouts, r.BadReplies, r.ErrorReplies)
		fmt.Fprintf(&sb, "outcome      %d recovered, %d failed (error rate %.2f%%)\n",
			r.Recovered, r.Failed, 100*r.ErrorRate())
	}
	fmt.Fprintf(&sb, "makespan     %.3f ms virtual, throughput %.1f rps\n", float64(r.Makespan)/1e6, r.Throughput)
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-13s %12s %12s %12s %14s %12s\n", "metric (ns)", "p50", "p95", "p99", "mean", "max")
	row := func(name string, p Pcts) {
		fmt.Fprintf(&sb, "%-13s %12d %12d %12d %14.1f %12d\n", name, p.P50, p.P95, p.P99, p.Mean, p.Max)
	}
	row("latency", r.Latency)
	row("queue-delay", r.QueueDelay)
	row("service", r.Service)
	fmt.Fprintf(&sb, "%-13s %12d %12d %12d %14.1f %12d  (over %d cold)\n",
		"cold-penalty", r.ColdPenalty.P50, r.ColdPenalty.P95, r.ColdPenalty.P99,
		r.ColdPenalty.Mean, r.ColdPenalty.Max, r.ColdStarts)
	return sb.String()
}
